package obs_test

import (
	"math"
	"math/rand"
	"testing"

	"podnas/internal/obs"
	"podnas/internal/obs/replay"
)

// TestLiveAndReplayQuantilesBitIdentical feeds one sample set to the live
// histogram and to replay's and requires the same p50/p90/p99 bit for bit:
// a replayed trace must report the percentiles the live run reported, and
// two interpolation formulas that agree only to rounding do not.
func TestLiveAndReplayQuantilesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 7, 100, 1000, 4097} {
		samples := make([]float64, n)
		post := replay.NewHistogram()
		for i := range samples {
			samples[i] = 0.001 + 30*rng.ExpFloat64() // latencies, seconds
			post.Add(samples[i])
		}
		p50, p90, p99 := obs.LiveQuantiles(samples)
		for _, q := range []struct {
			name       string
			live, post float64
		}{{"p50", p50, post.P50()}, {"p90", p90, post.P90()}, {"p99", p99, post.P99()}} {
			if math.Float64bits(q.live) != math.Float64bits(q.post) {
				t.Errorf("n=%d %s: live %v (%#x) != replay %v (%#x)", n, q.name,
					q.live, math.Float64bits(q.live), q.post, math.Float64bits(q.post))
			}
		}
	}
}
