package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// opSample is one op of one rep: how long it took, what it produced (as a
// fingerprint the harness compares across reps) and whether its own check
// passed.
type opSample struct {
	wall, cpu float64 // seconds; cpu is 0 where ops are not sampled singly
	out       uint64
	err       error
}

// cell is one stretch of a rep timed on its own: an epoch of an evaluation,
// say. A rep's cells follow one fixed layout, so cell i of one rep and cell i
// of another did the same work.
type cell struct{ wall, cpu float64 } // seconds

// repData is what a section hands back for one pass over its op list.
type repData struct {
	ops    []opSample
	cells  []cell  // set where ops are seconds long: the finer quiet-time rule applies
	busy   float64 // seconds the evaluation slots spent inside ops
	events uint64  // events the repository's own recorder saw
}

// mode selects what a rep records besides doing the work.
type mode struct {
	tr   *tracer // harness spans; nil in every measured rep
	obs  bool    // the repository's Recorder and Trace are on
	base int     // op id of the rep's first op, so every op has its own id
}

// section is one rig the harness can run reps on: the evaluation path, the
// forecast path or the job daemon path.
type section interface {
	numOps() int
	slots() int
	// obsModes lists the settings of the repository's telemetry the path
	// can run under, the one it ships with first.
	obsModes() []bool
	rep(m mode) (repData, error)
	// layers reports what the section learned about its own layers from the
	// traced reps it ran.
	layers(tr *tracer, out map[string]float64) error
	close() error
}

// repRecord is a rep with the harness's own readings around it.
type repRecord struct {
	repData
	wall, cpu, spin float64
	allocs          float64
	gemmCalls       float64
	gemmGFLOP       float64
	fsyncs          float64
}

// measureRep runs one rep between two counter readings. The spin loop runs
// first and a section's tidying-up last, both outside them.
func measureRep(s section, m mode) (repRecord, error) {
	sp := spin()
	c0 := readCounters()
	d, err := s.rep(m)
	c1 := readCounters()
	if t, ok := s.(interface{ tidy() error }); ok && err == nil {
		err = t.tidy()
	}
	if err != nil {
		return repRecord{}, err
	}
	if len(d.ops) != s.numOps() {
		return repRecord{}, fmt.Errorf("rep returned %d ops, want %d", len(d.ops), s.numOps())
	}
	return repRecord{
		repData: d, spin: sp,
		wall:      c1.at.Sub(c0.at).Seconds(),
		cpu:       (c1.cpu - c0.cpu).Seconds(),
		allocs:    float64(c1.allocs - c0.allocs),
		gemmCalls: float64(c1.gemmCalls - c0.gemmCalls),
		gemmGFLOP: float64(c1.gemmFLOPs-c0.gemmFLOPs) / 1e9,
		fsyncs:    float64(c1.fsyncs - c0.fsyncs),
	}, nil
}

// checkOps counts the ops whose own check failed or whose output differs
// from the same op of the first rep: the program is deterministic, so every
// rep must reproduce every output bit for bit.
func checkOps(reps []repRecord) (attempted, failed int, first error) {
	for _, r := range reps {
		for i, op := range r.ops {
			attempted++
			err := op.err
			if err == nil && op.out != reps[0].ops[i].out {
				err = fmt.Errorf("op %d produced %#x, the first rep %#x", i, op.out, reps[0].ops[i].out)
			}
			if err != nil {
				failed++
				if first == nil {
					first = err
				}
			}
		}
	}
	return attempted, failed, first
}

func column(reps []repRecord, f func(repRecord) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// withRest returns a rep's cells and one more: what of the rep's wall and
// CPU time lies outside them all (the runner between evaluations), so that
// the cells of a rep add up to the rep.
func withRest(r repRecord) []cell {
	rest := cell{r.wall, r.cpu}
	for _, c := range r.cells {
		rest.wall -= c.wall
		rest.cpu -= c.cpu
	}
	return append(append([]cell(nil), r.cells...), rest)
}

// endToEndOf applies the estimator to the measured reps: the fastest rep, or
// the finer rule where the reps come in cells.
func endToEndOf(reps []repRecord, setups []float64, slots int) map[string]float64 {
	n := float64(len(reps[0].ops))
	walls := column(reps, func(r repRecord) float64 { return r.wall })
	best := argMin(walls)
	quiet, cpu := walls[best], reps[best].cpu
	if reps[0].cells != nil {
		cells := make([][]cell, len(reps))
		cellWalls := make([][]float64, len(reps))
		for i, r := range reps {
			cells[i] = withRest(r)
			for _, c := range cells[i] {
				cellWalls[i] = append(cellWalls[i], c.wall)
			}
		}
		var pick []int
		quiet, pick = quietSum(cellWalls)
		cpu = 0
		for c, r := range pick {
			cpu += cells[r][c].cpu
		}
	}
	return map[string]float64{
		"setup_s":       minOf(setups),
		"ops_per_s":     n / quiet,
		"cpu_ms_per_op": 1e3 * cpu / n,
		"allocs_per_op": median(column(reps, func(r repRecord) float64 { return r.allocs / n })),
		"utilization":   reps[best].busy / (float64(slots) * walls[best]),
	}
}

// hostOf reports the harness-and-host diagnostics of a set of reps: they say
// whether a surprising number came from the program or from the machine.
func hostOf(reps []repRecord, out map[string]float64) {
	n := float64(len(reps[0].ops))
	var ops []float64
	for _, r := range reps {
		for _, op := range r.ops {
			ops = append(ops, 1e3*op.wall)
		}
	}
	spins := column(reps, func(r repRecord) float64 { return r.spin })
	out["bench.rep_spread_pct"] = spreadPct(column(reps, func(r repRecord) float64 { return r.wall }))
	out["bench.spin_ratio"] = quantile(spins, 1) / minOf(spins)
	out["bench.op_p50_ms"] = median(ops)
	out["bench.op_tail_ms"], out["bench.op_tail_pct"] = tail(ops)
	out["proc.peak_rss_mb"] = peakRSSMB()
	out["kernel.gemm_calls_per_op"] = median(column(reps, func(r repRecord) float64 { return r.gemmCalls / n }))
	out["kernel.gemm_gflop_per_op"] = median(column(reps, func(r repRecord) float64 { return r.gemmGFLOP / n }))
	out["fsatomic.syncs_per_op"] = median(column(reps, func(r repRecord) float64 { return r.fsyncs / n }))
}

// setUp builds the workload's rig setupReps times, keeps the last and
// returns every build's duration. Each discarded rig is closed and collected
// before the next is built: a default pipeline holds about 250 MB.
func setUp(reps int, build func() (section, error)) (section, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == reps-1 {
			return s, times, nil
		}
		if err := s.close(); err != nil {
			return nil, nil, err
		}
		s = nil
		runtime.GC()
	}
}

// measure runs whole reps until both the rep floor and the time asked for
// are met.
func measure(s section, minReps int, seconds float64) ([]repRecord, error) {
	var reps []repRecord
	t0 := time.Now()
	for len(reps) < minReps || time.Since(t0).Seconds() < seconds {
		r, err := measureRep(s, mode{obs: s.obsModes()[0], base: len(reps) * s.numOps()})
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// modeRatio compares two sets of reps of one op list that differ in what
// they record: the median over ops of the ratio of the op's fastest sample
// in a to its fastest in b. A burst that lands on one op of one side moves
// one ratio, not the median.
func modeRatio(a, b []repRecord) float64 {
	fastest := func(reps []repRecord, op int) float64 {
		return minOf(column(reps, func(r repRecord) float64 { return r.ops[op].wall }))
	}
	var ratios []float64
	for op := range a[0].ops {
		ratios = append(ratios, fastest(a, op)/fastest(b, op))
	}
	return median(ratios)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
