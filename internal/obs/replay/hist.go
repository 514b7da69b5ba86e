package replay

import (
	"math"
	"sort"

	"podnas/internal/metrics"
)

// Histogram collects one latency population (seconds) and answers the
// quantile and bucket queries the reports are built from. Samples are kept
// exactly — traces hold at most a few thousand per phase — so quantiles are
// true order statistics, not sketch estimates.
type Histogram struct {
	samples []float64
	sorted  bool
	sum     float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Add records one sample; non-finite or negative values are dropped (a
// latency can never be either — they would mean a corrupt trace pairing).
func (h *Histogram) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return
	}
	h.samples = append(h.samples, v)
	h.sorted = false
	h.sum += v
}

// N returns the sample count.
func (h *Histogram) N() int { return len(h.samples) }

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / float64(len(h.samples))
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() float64 {
	h.ensureSorted()
	if len(h.samples) == 0 {
		return 0
	}
	return h.samples[len(h.samples)-1]
}

// Min returns the smallest sample (0 when empty).
func (h *Histogram) Min() float64 {
	h.ensureSorted()
	if len(h.samples) == 0 {
		return 0
	}
	return h.samples[0]
}

func (h *Histogram) ensureSorted() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by metrics.Quantile, the
// R-7 rule the live histograms share. Empty histograms return 0; q is
// clamped into [0, 1].
func (h *Histogram) Quantile(q float64) float64 {
	h.ensureSorted()
	return metrics.Quantile(h.samples, q)
}

// P50, P90, and P99 are the report quantiles.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }

// P90 returns the 90th-percentile sample.
func (h *Histogram) P90() float64 { return h.Quantile(0.90) }

// P99 returns the 99th-percentile sample.
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// Buckets splits the sample range into n equal-width buckets and returns
// the bucket lower edges (length n+1: the last entry is the upper bound)
// and per-bucket counts — the shape internal/plot renders as bars. A
// degenerate range (all samples equal) widens symmetrically so the single
// spike still draws.
func (h *Histogram) Buckets(n int) (edges []float64, counts []int) {
	if n < 1 {
		n = 1
	}
	counts = make([]int, n)
	edges = make([]float64, n+1)
	if len(h.samples) == 0 {
		for i := range edges {
			edges[i] = float64(i) / float64(n)
		}
		return edges, counts
	}
	h.ensureSorted()
	lo, hi := h.samples[0], h.samples[len(h.samples)-1]
	if hi-lo < 1e-12 {
		lo, hi = lo-0.5, hi+0.5
	}
	width := (hi - lo) / float64(n)
	for i := range edges {
		edges[i] = lo + float64(i)*width
	}
	for _, v := range h.samples {
		b := int((v - lo) / width)
		if b >= n {
			b = n - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	return edges, counts
}
