// Command benchmark measures the search path of podnas end to end and layer
// by layer, with numbers that repeat on a small shared machine: timings come
// from the fastest rep, counts from the median, and nothing is averaged over
// a run. See README.md.
//
//	go run -C benchmark . -workload eval_serial [-seed 1] [-seconds 8] [-trace 1]
//	go run -C benchmark . -aa
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"podnas"
	"podnas/internal/pod"
	"podnas/internal/sst"
	"podnas/internal/window"
)

// workload is one named set of inputs and the rig it runs on.
type workload struct {
	name      string
	procs     int // GOMAXPROCS
	setupReps int // set-ups per run; the fastest is reported
	minReps   int // rep floor, whatever -seconds says
	cycles    int // traced passes over the section's modes
	kind      string
	cfg       func() podnas.PipelineConfig // the pipeline set-up probes time
	build     func(seed uint64) (section, error)
}

var workloads = []workload{
	{
		name: "eval_serial", procs: 1, setupReps: 2, minReps: 4, cycles: 1,
		kind: "eval", cfg: podnas.DefaultPipelineConfig,
		build: func(seed uint64) (section, error) {
			return newEvalSection(podnas.DefaultPipelineConfig(), seed, false)
		},
	},
	{
		name: "eval_parallel", procs: 2, setupReps: 2, minReps: 4, cycles: 1,
		kind: "eval", cfg: podnas.DefaultPipelineConfig,
		build: func(seed uint64) (section, error) {
			return newEvalSection(podnas.DefaultPipelineConfig(), seed, true)
		},
	},
	{
		name: "forecast_b1", procs: 1, setupReps: 5, minReps: 20, cycles: 5,
		kind: "forecast", cfg: podnas.SmallPipelineConfig,
		build: func(seed uint64) (section, error) { return newForecastSection(seed, 500) },
	},
	{
		name: "nasd_pool", procs: 1, setupReps: 5, minReps: 20, cycles: 5,
		kind: "nasd", cfg: podnas.SmallPipelineConfig,
		build: func(seed uint64) (section, error) { return newNasdSection(seed, 16, 2) },
	},
}

// miniSections are the reduced rigs a traced run adds to its own, so that
// every layer is measured whatever the workload: the per-layer list is one
// list, and a layer the workload never enters still gets a real number.
var miniSections = []struct {
	kind   string
	cycles int
	build  func(seed uint64) (section, error)
}{
	{"eval", 1, func(seed uint64) (section, error) { return newEvalSection(podnas.SmallPipelineConfig(), seed, false) }},
	{"forecast", 3, func(seed uint64) (section, error) { return newForecastSection(seed, 100) }},
	{"nasd", 3, func(seed uint64) (section, error) { return newNasdSection(seed, 16, 1) }},
}

// result is what one run reports; print writes it in both forms.
type result struct {
	attempted, failed int
	correct           bool
	metrics           map[string]float64
	defs              []metricDef
}

func (r result) print() error {
	type entry struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]entry `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]entry{}}
	for _, d := range r.defs {
		v, ok := r.metrics[d.name]
		if !ok || !finite(v) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Printf("metric %-28s %16.6f %s\n", d.name, v, d.unit)
		line.Metrics[d.name] = entry{v, d.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", data)
	return nil
}

func note(format string, args ...any) { fmt.Printf("note "+format+"\n", args...) }

// runMeasured is the untraced run: the end-to-end numbers come from here.
func runMeasured(w workload, seed uint64, seconds float64) (result, error) {
	sec, setups, err := setUp(w.setupReps, func() (section, error) { return w.build(seed) })
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	reps, err := measure(sec, w.minReps, seconds)
	cerr := sec.close()
	if err != nil {
		return result{}, err
	}
	res := result{defs: endToEnd, metrics: endToEndOf(reps, setups, sec.slots())}
	var first error
	res.attempted, res.failed, first = checkOps(reps)
	if first == nil {
		first = cerr
	}
	if first != nil {
		note("check failed: %v", first)
	}
	res.correct = first == nil
	note("%d set-ups, %d reps of %d ops", len(setups), len(reps), sec.numOps())
	diag := map[string]float64{}
	hostOf(reps, diag)
	for _, d := range perLayer {
		if v, ok := diag[d.name]; ok {
			fmt.Printf("diag   %-28s %16.6f %s\n", d.name, v, d.unit)
		}
	}
	return res, nil
}

// traceSection runs a section's traced reps and merges what they show into
// out. The focus section also runs bare reps beside the traced ones, so the
// cost of the harness's own spans is known, and owns the host diagnostics.
func traceSection(sec section, cycles int, focus bool, tr *tracer, out map[string]float64, res *result) error {
	type key struct{ traced, obs bool }
	byMode := map[key][]repRecord{}
	var all []repRecord
	obsModes := sec.obsModes()
	shipped := obsModes[0]
	for c := 0; c < cycles; c++ {
		var plan []mode
		if focus {
			plan = append(plan, mode{obs: shipped})
		}
		for _, o := range obsModes {
			plan = append(plan, mode{tr: tr, obs: o})
		}
		for _, m := range plan {
			m.base = len(all) * sec.numOps()
			r, err := measureRep(sec, m)
			if err != nil {
				return err
			}
			all = append(all, r)
			k := key{m.tr != nil, m.obs}
			byMode[k] = append(byMode[k], r)
		}
	}
	a, f, first := checkOps(all)
	res.attempted += a
	res.failed += f
	if first != nil {
		note("check failed: %v", first)
	}
	if focus {
		// Reps with the telemetry toggled do different work; the host
		// diagnostics are taken over the ones that do the workload's own.
		bare, spans := byMode[key{false, shipped}], byMode[key{true, shipped}]
		hostOf(append(bare, spans...), out)
		out["bench.span_overhead_pct"] = 100 * (modeRatio(spans, bare) - 1)
	}
	if len(obsModes) == 2 {
		n := float64(sec.numOps())
		out["obs.trace_overhead_pct"] = 100 * (modeRatio(byMode[key{true, true}], byMode[key{true, false}]) - 1)
		out["obs.events_per_op"] = median(column(byMode[key{true, true}], func(r repRecord) float64 { return float64(r.events) / n }))
	}
	return sec.layers(tr, out)
}

// setupProbes times the stages of pipeline preparation by calling them
// directly, on the configuration the workload sets up.
func setupProbes(cfg podnas.PipelineConfig, out map[string]float64) error {
	t0 := time.Now()
	data, err := sst.Generate(cfg.Data)
	if err != nil {
		return err
	}
	t1 := time.Now()
	basis, err := pod.Compute(data.TrainSnapshots(), cfg.Nr)
	if err != nil {
		return err
	}
	t2 := time.Now()
	coeff := basis.Project(data.Snapshots)
	t3 := time.Now()
	if _, err := window.Build(coeff, cfg.K); err != nil {
		return err
	}
	t4 := time.Now()
	out["sst.generate_s"] = t1.Sub(t0).Seconds()
	out["pod.compute_s"] = t2.Sub(t1).Seconds()
	out["pod.project_s"] = t3.Sub(t2).Seconds()
	out["window.build_ms"] = 1e3 * t4.Sub(t3).Seconds()
	return nil
}

// runTraced is the traced run: one set-up, a few reps with spans around
// every call into a layer, the reduced rigs of the other paths, and the
// span file. Its timings explain the measured run's; they do not replace
// them.
func runTraced(w workload, seed uint64) (result, error) {
	res := result{defs: perLayer, correct: true}
	focusOut := map[string]float64{}
	tr := newTracer()
	sec, err := w.build(seed)
	if err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	numOps := sec.numOps()
	err = traceSection(sec, w.cycles, true, tr, focusOut, &res)
	if cerr := sec.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return res, err
	}
	sec = nil
	runtime.GC()

	out := map[string]float64{}
	for _, mini := range miniSections {
		if mini.kind == w.kind {
			continue
		}
		ms, err := mini.build(seed)
		if err != nil {
			return res, fmt.Errorf("%s rig: %w", mini.kind, err)
		}
		mo := map[string]float64{}
		err = traceSection(ms, mini.cycles, false, newTracer(), mo, &res)
		if cerr := ms.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return res, fmt.Errorf("%s rig: %w", mini.kind, err)
		}
		for k, v := range mo {
			if _, taken := out[k]; !taken {
				out[k] = v
			}
		}
	}
	for k, v := range focusOut {
		out[k] = v
	}
	if err := setupProbes(w.cfg(), out); err != nil {
		return res, err
	}
	res.metrics = out

	worst, roots := opCoverage(tr.spans, numOps)
	note("child spans account for at least %.1f%% of each of the %d ops that have any", 100*worst, roots)
	if worst < 0.95 {
		res.correct = false
		note("check failed: an op's spans account for only %.1f%% of its wall time", 100*worst)
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		return res, err
	}
	path := filepath.Join("out", fmt.Sprintf("spans-%s-%d.json", w.name, seed))
	if err := tr.write(path, w.name, seed); err != nil {
		return res, err
	}
	note("%d spans written to %s", len(tr.spans), path)
	for name, ms := range selfByName(tr.spans) {
		fmt.Printf("self   %-28s %16.3f ms\n", name, ms)
	}
	if res.failed > 0 {
		res.correct = false
	}
	return res, nil
}

func main() {
	name := flag.String("workload", "", "eval_serial, eval_parallel, forecast_b1 or nasd_pool")
	seed := flag.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Float64("seconds", 8, "measure whole reps for at least this long (and never fewer than the workload's floor)")
	trace := flag.String("trace", "0", "1: traced run, per-layer metrics; 0: measured run, end-to-end metrics")
	aa := flag.Bool("aa", false, "run every workload twice in fresh processes, hold each end-to-end pair to its bound, then trace it")
	flag.Parse()
	// The collector's pace is part of what is measured; pin it so that the
	// environment (GOGC) cannot move it.
	debug.SetGCPercent(100)

	if *aa {
		if err := runAA(*seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	traced, err := strconv.ParseBool(*trace)
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if err != nil || w == nil || flag.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -workload eval_serial|eval_parallel|forecast_b1|nasd_pool [-seed n] [-seconds s] [-trace 0|1] | -aa")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(w.procs)
	if w.procs > runtime.NumCPU() {
		note("%s wants %d CPUs, the host has %d: its slots share cores", w.name, w.procs, runtime.NumCPU())
	}
	var res result
	if traced {
		res, err = runTraced(*w, *seed)
	} else {
		res, err = runMeasured(*w, *seed, *seconds)
	}
	if err == nil {
		err = res.print()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(1)
	}
}

// child runs this program again in a fresh process and returns the metrics
// of its last line and the diagnostics it printed before it.
func child(args ...string) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	os.Stdout.Write(stdout.Bytes())
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", strings.Join(args, " "), runErr)
	}
	vals := map[string]float64{}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) >= 3 && f[0] == "diag" {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				vals[f[1]] = v
			}
		}
	}
	var line struct {
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", strings.Join(args, " "), err)
	}
	for k, m := range line.Metrics {
		vals[k] = m.Value
	}
	return vals, nil
}

// runAA measures every workload twice with the same code and inputs and
// fails if any end-to-end pair differs by more than the metric's bound; the
// host diagnostics printed beside a failing pair say whether the host or the
// metric was unsteady. It then runs the workload traced, so that one command
// prints every metric there is.
func runAA(seed uint64, seconds float64) error {
	var failures []string
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds)}
		a, err := child(args...)
		if err != nil {
			return err
		}
		b, err := child(args...)
		if err != nil {
			return err
		}
		for _, d := range endToEnd {
			diff := d.worse(a[d.name], b[d.name])
			if diff < 0 {
				diff = -diff
			}
			verdict := "ok"
			if diff > d.bound {
				verdict = "FAIL"
				failures = append(failures, w.name+"/"+d.name)
			}
			fmt.Printf("aa     %-14s %-14s %14.6f %14.6f  %6.2f%% of %4.1f%%  %s  (rep spread %.1f%%/%.1f%%, spin ratio %.2f/%.2f)\n",
				w.name, d.name, a[d.name], b[d.name], 100*diff, 100*d.bound, verdict,
				a["bench.rep_spread_pct"], b["bench.rep_spread_pct"], a["bench.spin_ratio"], b["bench.spin_ratio"])
		}
		if _, err := child(append(args, "-trace", "1")...); err != nil {
			return err
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("A/A pairs beyond their bound: %s", strings.Join(failures, ", "))
	}
	return nil
}
