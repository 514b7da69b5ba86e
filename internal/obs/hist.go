package obs

import (
	"math"
	"sort"

	"podnas/internal/metrics"
)

// latencyBuckets are the fixed upper bounds (seconds) shared by every
// latency histogram the /metrics endpoint exposes. Fixed buckets keep the
// exposition stable across runs and processes so scrapes can be compared
// without bucket-boundary drift; +Inf is implicit.
var latencyBuckets = []float64{
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// histWindow bounds the exact-sample ring used for quantiles, so a
// long-lived daemon's p99 tracks recent behavior in O(1) memory while the
// bucket counters remain whole-lifetime monotone (as OpenMetrics requires).
const histWindow = 8192

// hist is a fixed-bucket histogram (for exposition) plus a bounded ring of
// exact samples (for tail quantiles). Not goroutine-safe; the owning
// Metrics mutex serializes access. Everything here is driven by recorded
// values only — no clocks — so a replayed trace reproduces it exactly.
type hist struct {
	counts  []uint64 // per-bucket (non-cumulative); last entry = +Inf
	sum     float64
	total   uint64
	samples []float64 // ring, most recent histWindow observations
	next    int       // ring write cursor
}

func newHist() *hist {
	return &hist{counts: make([]uint64, len(latencyBuckets)+1)}
}

func (h *hist) add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if v < 0 {
		v = 0
	}
	i := sort.SearchFloat64s(latencyBuckets, v) // first bucket with le >= v
	h.counts[i]++
	h.sum += v
	h.total++
	if len(h.samples) < histWindow {
		h.samples = append(h.samples, v)
	} else {
		h.samples[h.next] = v
		h.next = (h.next + 1) % histWindow
	}
}

// quantile returns the q-th quantile (metrics.Quantile, the definition
// replay's Histogram shares) over the retained sample window; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	s := make([]float64, len(h.samples))
	copy(s, h.samples)
	sort.Float64s(s)
	return metrics.Quantile(s, q)
}

// family renders the histogram as an OpenMetrics histogram family with
// cumulative bucket counts.
func (h *hist) family(name, help string) Family {
	f := Family{Name: name, Help: help, Type: TypeHistogram, Sum: h.sum, Count: h.total}
	var cum uint64
	for i, le := range latencyBuckets {
		cum += h.counts[i]
		f.Buckets = append(f.Buckets, Bucket{LE: le, Count: cum})
	}
	return f
}
