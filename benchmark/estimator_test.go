package main

import (
	"errors"
	"math"
	"testing"
)

// burstySeries imitates the host: every sample costs base, and bursts of a
// few samples at a time inflate it by 30 to 80 percent. seed moves the
// bursts, not the base.
func burstySeries(n int, base float64, seed uint64) []float64 {
	x := seed*2862933555777941757 + 3037000493
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / (1 << 53)
	}
	out := make([]float64, n)
	for i := 0; i < n; {
		quiet := 1 + int(next()*4)
		for j := 0; j < quiet && i < n; j, i = j+1, i+1 {
			out[i] = base * (1 + 0.004*next())
		}
		burst := 1 + int(next()*6)
		factor := 1.3 + 0.5*next()
		for j := 0; j < burst && i < n; j, i = j+1, i+1 {
			out[i] = base * factor
		}
	}
	return out
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestBestOfRepeatsWhereMeansDoNot(t *testing.T) {
	var mins, means []float64
	for seed := uint64(1); seed <= 8; seed++ {
		s := burstySeries(25, 0.8, seed)
		mins = append(mins, minOf(s))
		means = append(means, mean(s))
	}
	if spread := (quantile(mins, 1) - minOf(mins)) / minOf(mins); spread > 0.005 {
		t.Errorf("fastest samples of 8 series spread by %.2f%%, want under 0.5%%", 100*spread)
	}
	if spread := (quantile(means, 1) - minOf(means)) / minOf(means); spread < 0.05 {
		t.Errorf("means of 8 series spread by only %.2f%%: the series is not bursty enough to test anything", 100*spread)
	}
}

func TestQuietSumSurvivesABurstInEveryRep(t *testing.T) {
	// Every rep has one disturbed op, a different one each time: no whole
	// rep is clean, yet every op has a clean sample.
	clean := []float64{0.9, 1.3, 1.7, 2.5}
	var samples [][]float64
	for r := 0; r < 4; r++ {
		row := append([]float64(nil), clean...)
		row[r] *= 1.6
		samples = append(samples, row)
	}
	sum, pick := quietSum(samples)
	if want := 0.9 + 1.3 + 1.7 + 2.5; math.Abs(sum-want) > 1e-12 {
		t.Errorf("quiet sum %v, want %v", sum, want)
	}
	for op, r := range pick {
		if r == op {
			t.Errorf("op %d was taken from the rep that disturbed it", op)
		}
	}
	var bestRep float64 = math.Inf(1)
	for _, row := range samples {
		bestRep = math.Min(bestRep, row[0]+row[1]+row[2]+row[3])
	}
	if bestRep <= sum {
		t.Errorf("best whole rep %v should exceed the quiet sum %v", bestRep, sum)
	}
}

func TestQuantileAndTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median %v, want 50.5", got)
	}
	if got := median(xs[:3]); got != 99 {
		t.Errorf("median of three %v, want 99", got)
	}
	if got := quantile(xs, 1); got != 100 {
		t.Errorf("max %v, want 100", got)
	}
	if v, p := tail(xs); v != 90 || p != 90 {
		t.Errorf("tail of 100 samples = %v at p%v, want 90 at p90 (ten samples beyond)", v, p)
	}
	if v, p := tail(xs[:12]); v != 100 || p != 100 {
		t.Errorf("tail of 12 samples = %v at p%v, want the maximum at p100", v, p)
	}
	if got := spreadPct([]float64{1, 1.1, 1.2}); math.Abs(got-10) > 1e-9 {
		t.Errorf("spread %v%%, want 10%%", got)
	}
}

func syntheticRep(walls []float64, cpu float64, allocs float64, outs []uint64) repRecord {
	r := repRecord{cpu: cpu, allocs: allocs, spin: 0.001}
	for i, w := range walls {
		r.ops = append(r.ops, opSample{wall: w, cpu: w * 0.9, out: outs[i]})
		r.wall += w
		r.busy += w
	}
	r.wall += 0.01 // time between ops
	return r
}

func TestEndToEndEstimators(t *testing.T) {
	outs := []uint64{7, 8}
	reps := []repRecord{
		syntheticRep([]float64{1.0, 3.0}, 3.9, 100, outs),
		syntheticRep([]float64{1.5, 2.0}, 3.4, 102, outs),
		syntheticRep([]float64{1.2, 2.6}, 3.7, 101, outs),
	}
	whole := endToEndOf(reps, []float64{5, 4, 6}, 1)
	if got, want := whole["ops_per_s"], 2/3.51; math.Abs(got-want) > 1e-12 {
		t.Errorf("best-rep ops_per_s %v, want %v", got, want)
	}
	if got := whole["cpu_ms_per_op"]; math.Abs(got-1700) > 1e-9 {
		t.Errorf("best-rep cpu %v ms/op, want 1700", got)
	}
	if got := whole["setup_s"]; got != 4 {
		t.Errorf("setup_s %v, want the fastest set-up, 4", got)
	}
	if got := whole["allocs_per_op"]; got != 50.5 {
		t.Errorf("allocs_per_op %v, want the median rep's 50.5", got)
	}
	// The same reps in cells, one per op: every cell's fastest sample, and the
	// fastest sample of what lies outside the cells (the first rep's: 0.01 s
	// and 0.3 CPU-s).
	for i := range reps {
		reps[i].wall += 0.001 * float64(i)
		for _, op := range reps[i].ops {
			reps[i].cells = append(reps[i].cells, cell{op.wall, op.cpu})
		}
	}
	fine := endToEndOf(reps, []float64{5}, 1)
	if got, want := fine["ops_per_s"], 2/(1.0+2.0+0.01); math.Abs(got-want) > 1e-12 {
		t.Errorf("cell-rule ops_per_s %v, want %v", got, want)
	}
	if got, want := fine["cpu_ms_per_op"], 1e3*(0.9*(1.0+2.0)+0.3)/2; math.Abs(got-want) > 1e-9 {
		t.Errorf("cell-rule cpu %v, want %v (from the same samples)", got, want)
	}
}

func TestCheckOpsCountsMismatchesAndErrors(t *testing.T) {
	good := syntheticRep([]float64{1, 1}, 2, 1, []uint64{7, 8})
	drift := syntheticRep([]float64{1, 1}, 2, 1, []uint64{7, 9})
	broken := syntheticRep([]float64{1, 1}, 2, 1, []uint64{7, 8})
	broken.ops[0].err = errors.New("boom")
	attempted, failed, first := checkOps([]repRecord{good, drift, broken})
	if attempted != 6 || failed != 2 || first == nil {
		t.Errorf("attempted %d failed %d first %v, want 6, 2 and an error", attempted, failed, first)
	}
}

func TestModeRatioIgnoresOneDisturbedOp(t *testing.T) {
	bare := []repRecord{syntheticRep([]float64{1, 2, 3}, 0, 0, []uint64{0, 0, 0})}
	traced := []repRecord{syntheticRep([]float64{1.01, 2.02, 4.5}, 0, 0, []uint64{0, 0, 0})}
	if got := modeRatio(traced, bare); math.Abs(got-1.01) > 1e-9 {
		t.Errorf("mode ratio %v, want 1.01", got)
	}
}
