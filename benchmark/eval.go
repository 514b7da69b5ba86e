package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"podnas"
	"podnas/internal/arch"
	"podnas/internal/kernel"
	"podnas/internal/metrics"
	"podnas/internal/nn"
	"podnas/internal/obs"
	obsspan "podnas/internal/obs/span"
	"podnas/internal/search"
	"podnas/internal/tensor"
)

// decomposedOpBase keeps the op ids of decomposed evaluations clear of the
// reps' own.
const decomposedOpBase = 1 << 20

// searchEpochs is the paper's per-evaluation training budget.
const searchEpochs = 20

// evalSeedStride is the stride search.RunAsyncCtx puts between the seeds of
// consecutive evaluations; the timing decorator inverts it to learn which op
// it is serving.
const evalSeedStride = 0x9e37

// candidatePoolSeed fixes the candidate architectures for every --seed. The
// candidates' shapes set the work of an op (two draws of the q65 candidate
// differ by a tenth in training time), so a benchmark that drew them from
// --seed would measure the draw; --seed drives the weights, the shuffles and
// the order of everything else instead.
const candidatePoolSeed = 1

// candidate is one architecture of the fixed op list.
type candidate struct {
	label  string
	arch   arch.Arch
	params int
}

var candidateRanks = []struct {
	label string
	rank  int
}{{"q10", 6}, {"q35", 22}, {"q65", 41}, {"q90", 57}}

// pickCandidates draws 64 architectures from the space, stable-sorts them by
// parameter count (ties by key) and takes the ranks named above: a small,
// two middling and a large network of the paper's search space, skip
// connections and projections included. It is a pure function of poolSeed.
func pickCandidates(space arch.Space, poolSeed uint64) ([]candidate, error) {
	rng := tensor.NewRNG(poolSeed)
	pool := make([]candidate, 64)
	for i := range pool {
		a := space.Random(rng)
		n, err := space.ParamCount(a)
		if err != nil {
			return nil, err
		}
		pool[i] = candidate{arch: a, params: n}
	}
	sort.SliceStable(pool, func(i, j int) bool {
		if pool[i].params != pool[j].params {
			return pool[i].params < pool[j].params
		}
		return pool[i].arch.Key() < pool[j].arch.Key()
	})
	out := make([]candidate, len(candidateRanks))
	for i, r := range candidateRanks {
		out[i] = pool[r.rank]
		out[i].label = r.label
	}
	return out, nil
}

// replay proposes a fixed list in order; the runner under test does the rest.
type replay struct {
	list []arch.Arch
	next int
}

func (r *replay) Propose() arch.Arch {
	a := r.list[r.next%len(r.list)]
	r.next++
	return a.Clone()
}
func (r *replay) Report(arch.Arch, float64) {}
func (r *replay) Name() string              { return "replay" }

// timedEvaluator is the timing decorator around the evaluator handed to the
// runner: wall and CPU time of every call, and a span when tracing.
type timedEvaluator struct {
	inner  search.ContextEvaluator
	base   uint64 // the run's seed, to recover the op index from a call's seed
	name   string
	tr     *tracer
	parent int
	opBase int

	// cutting is set on the one-slot rig: the evaluator's epoch callback then
	// cuts the evaluation in progress into cells.
	cutting bool
	open    []cut

	mu    sync.Mutex
	calls []evalCall
}

// cut is one reading of both clocks inside an evaluation.
type cut struct {
	at  time.Time
	cpu time.Duration
}

type evalCall struct {
	idx        int
	start, end time.Time
	cpu        float64
	cuts       []cut // start, every epoch's end, end; nil unless cutting
}

// mark cuts the evaluation in progress; only one is, on the one-slot rig,
// the only rig whose evaluator calls it.
func (t *timedEvaluator) mark() { t.open = append(t.open, cut{time.Now(), cpuTime()}) }

func (t *timedEvaluator) Evaluate(a arch.Arch, seed uint64) (float64, error) {
	return t.EvaluateCtx(context.Background(), a, seed)
}

func (t *timedEvaluator) EvaluateCtx(ctx context.Context, a arch.Arch, seed uint64) (float64, error) {
	idx := int((seed - t.base) / evalSeedStride)
	id := t.tr.begin(t.name, t.parent, t.opBase+idx)
	c0, t0 := cpuTime(), time.Now()
	if t.cutting {
		t.open = append(make([]cut, 0, searchEpochs+2), cut{t0, c0})
	}
	r, err := t.inner.EvaluateCtx(ctx, a, seed)
	t1, c1 := time.Now(), cpuTime()
	t.tr.end(id)
	call := evalCall{idx: idx, start: t0, end: t1, cpu: (c1 - c0).Seconds()}
	if t.cutting {
		call.cuts, t.open = append(t.open, cut{t1, c1}), nil
	}
	t.mu.Lock()
	t.calls = append(t.calls, call)
	t.mu.Unlock()
	return r, err
}

// tailIdle is the slot time left empty at the end of a run: for each of the
// run's slots, the time between its last evaluation's end and the run's.
func tailIdle(calls []evalCall, slots int, runEnd time.Time) float64 {
	ends := make([]time.Time, len(calls))
	for i, c := range calls {
		ends[i] = c.end
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].After(ends[j]) })
	var idle float64
	for i := 0; i < slots && i < len(ends); i++ {
		idle += runEnd.Sub(ends[i]).Seconds()
	}
	return idle
}

// evalSection drives paper evaluations through the asynchronous runner the
// way podnas.Search does: a searcher, Pipeline.NewEvaluator and
// search.RunAsyncCtx, with the evaluator's kernel fan-out left at its
// default.
type evalSection struct {
	p       *podnas.Pipeline
	cands   []candidate // smallest first
	list    []candidate // the op list
	archs   []arch.Arch // the op list as the searcher replays it
	ev      search.ContextEvaluator
	seed    uint64
	workers int
	// onEpoch is where the evaluator's epoch callback goes during a rep of the
	// one-slot rig; the two-slot rig runs the evaluator without a callback.
	onEpoch func()

	// Per traced rep, for layers(): evaluator time per op, runner overhead
	// per evaluation and tail idle.
	evalWall [][]float64
	overhead []float64
	idle     []float64
	rewards  []float64 // by op index, from the latest rep
}

// newEvalSection builds the pipeline and the op list. parallel lists the
// candidates largest first, twice, for two slots; otherwise smallest first,
// once, for one.
func newEvalSection(cfg podnas.PipelineConfig, seed uint64, parallel bool) (*evalSection, error) {
	p, err := podnas.NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	cands, err := pickCandidates(p.DefaultSpace(), candidatePoolSeed)
	if err != nil {
		return nil, err
	}
	ev, err := p.NewEvaluator(searchEpochs)
	if err != nil {
		return nil, err
	}
	tev, ok := ev.(*search.TrainingEvaluator)
	if !ok {
		return nil, fmt.Errorf("pipeline evaluator is a %T, not the training evaluator", ev)
	}
	s := &evalSection{p: p, cands: cands, ev: tev, seed: seed, workers: 1}
	if !parallel {
		// Evaluations are seconds long and host noise comes in bursts about as
		// long: on the one-slot rig, where only one evaluation is ever in
		// progress, the epoch callback cuts each into cells of tens of
		// milliseconds, and a burst then spoils a few cells, not an op.
		tev.Config.EpochCallback = func(int, float64) {
			if s.onEpoch != nil {
				s.onEpoch()
			}
		}
	}
	if parallel {
		s.workers = 2
		for pass := 0; pass < 2; pass++ {
			for i := len(cands) - 1; i >= 0; i-- {
				s.list = append(s.list, cands[i])
			}
		}
	} else {
		s.list = cands
	}
	for _, c := range s.list {
		s.archs = append(s.archs, c.arch)
	}
	return s, nil
}

func (s *evalSection) numOps() int      { return len(s.list) }
func (s *evalSection) slots() int       { return s.workers }
func (s *evalSection) obsModes() []bool { return []bool{false, true} }
func (s *evalSection) close() error     { s.p = nil; return nil }

// countingRecorder counts the events that reach the repository's recorder.
type countingRecorder struct {
	inner obs.Recorder
	mu    sync.Mutex
	n     uint64
}

func (c *countingRecorder) Record(e obs.Event) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.inner.Record(e)
}

func (c *countingRecorder) count() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (s *evalSection) rep(m mode) (repData, error) {
	n := len(s.list)
	runSpan := m.tr.begin("search.run", 0, -1)
	te := &timedEvaluator{inner: s.ev, base: s.seed, name: "search.eval", tr: m.tr, parent: runSpan, opBase: m.base}
	if s.workers == 1 {
		te.cutting, s.onEpoch = true, te.mark
		defer func() { s.onEpoch = nil }()
	}
	opts := search.RunAsyncOptions{Workers: s.workers, MaxEvals: n, Seed: s.seed}
	var rec *countingRecorder
	if m.obs {
		rec = &countingRecorder{inner: obs.NewRing(4096)}
		opts.Recorder = rec
		opts.Trace = obsspan.NewTrace(fmt.Sprintf("run/bench/%d", s.seed))
	}
	t0 := time.Now()
	res, err := search.RunAsyncCtx(context.Background(), &replay{list: s.archs}, te, opts)
	t1 := time.Now()
	m.tr.end(runSpan)
	if err != nil {
		return repData{}, err
	}
	if len(res) != n || len(te.calls) != n {
		return repData{}, fmt.Errorf("runner returned %d results over %d evaluator calls, want %d", len(res), len(te.calls), n)
	}
	d := repData{ops: make([]opSample, n)}
	if rec != nil {
		d.events = rec.count()
	}
	cpu := make([]float64, n)
	walls := make([]float64, n)
	var evalSum float64
	for _, c := range te.calls { // in op order on the one-slot rig
		cpu[c.idx] = c.cpu
		walls[c.idx] = c.end.Sub(c.start).Seconds()
		evalSum += walls[c.idx]
		for i := 1; i < len(c.cuts); i++ {
			a, b := c.cuts[i-1], c.cuts[i]
			d.cells = append(d.cells, cell{b.at.Sub(a.at).Seconds(), (b.cpu - a.cpu).Seconds()})
		}
	}
	s.rewards = make([]float64, n)
	for _, r := range res {
		op := opSample{wall: r.Elapsed.Seconds(), cpu: cpu[r.Index], out: math.Float64bits(r.Reward), err: r.Err}
		if op.err == nil && (!finite(r.Reward) || op.out == math.Float64bits(search.DivergedReward)) {
			op.err = fmt.Errorf("evaluation %d diverged (reward %v)", r.Index, r.Reward)
		}
		d.ops[r.Index] = op
		d.busy += op.wall
		s.rewards[r.Index] = r.Reward
	}
	if m.tr != nil {
		idle := tailIdle(te.calls, s.workers, t1)
		slotTime := float64(s.workers) * t1.Sub(t0).Seconds()
		s.evalWall = append(s.evalWall, walls)
		s.idle = append(s.idle, idle)
		s.overhead = append(s.overhead, (slotTime-evalSum-idle)/float64(n))
	}
	return d, nil
}

// decomposedEval is what one decomposed evaluation measured.
type decomposedEval struct {
	reward      float64
	trainSec    float64
	trainGFLOP  float64
	buildAllocs float64
	epochSec    []float64
}

// decomposed performs evaluation idx of the op list through the public calls
// the training evaluator makes, in its order, with a span around each. The
// evaluator is opaque from outside; this is how its inside gets timed, and
// the reward must equal the evaluator's bit for bit or the decomposition is
// measuring something else.
func (s *evalSection) decomposed(tr *tracer, idx int) (decomposedEval, error) {
	var d decomposedEval
	p, c, op := s.p, s.list[idx], decomposedOpBase+idx
	seed := s.seed + uint64(idx)*evalSeedStride
	root := tr.begin("eval.decomposed", 0, op)
	defer tr.end(root)

	a0 := heapAllocs()
	id := tr.begin("arch.build", root, op)
	g, err := p.DefaultSpace().Build(c.arch, tensor.NewRNG(seed))
	tr.end(id)
	if err != nil {
		return d, err
	}
	d.buildAllocs = float64(heapAllocs() - a0)

	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = searchEpochs
	cfg.Seed = seed ^ 0x5eed
	cfg.Ctx = context.Background()
	marks := []time.Time{time.Now()}
	cfg.EpochCallback = func(int, float64) { marks = append(marks, time.Now()) }
	k0 := kernel.ReadStats()
	train := tr.begin("nn.train", root, op)
	_, err = nn.Train(g, p.TrainWin.X, p.TrainWin.Y, cfg)
	tr.end(train)
	if err != nil {
		return d, fmt.Errorf("decomposed training of %s: %w", c.label, err)
	}
	d.trainGFLOP = float64(kernel.ReadStats().GemmFLOPs-k0.GemmFLOPs) / 1e9
	d.trainSec = marks[len(marks)-1].Sub(marks[0]).Seconds()
	for e := 1; e < len(marks); e++ {
		tr.add("nn.epoch", train, op, marks[e-1], marks[e])
		d.epochSec = append(d.epochSec, marks[e].Sub(marks[e-1]).Seconds())
	}

	id = tr.begin("nn.predict", root, op)
	pred := nn.Predict(g, p.ValWin.X, 256)
	tr.end(id)
	id = tr.begin("window.inverse", root, op)
	p.Scaler.Inverse(pred)
	target := p.ValWin.Y.Clone()
	p.Scaler.Inverse(target)
	tr.end(id)
	id = tr.begin("metrics.r2", root, op)
	d.reward = metrics.R2(pred.Data, target.Data)
	tr.end(id)
	return d, nil
}

// stepProbe times the forward and backward passes of the largest candidate
// on one training batch of 64, and counts allocations per training step.
func (s *evalSection) stepProbe(out map[string]float64) error {
	p, c := s.p, s.cands[len(s.cands)-1]
	g, err := p.DefaultSpace().Build(c.arch, tensor.NewRNG(s.seed))
	if err != nil {
		return err
	}
	idx := make([]int, 64)
	for i := range idx {
		idx[i] = i % p.TrainWin.Examples()
	}
	xb, yb := p.TrainWin.X.Gather(idx), p.TrainWin.Y.Gather(idx)
	opt := nn.NewAdam(1e-3)
	var grad *tensor.Tensor3
	var fwd, bwd []float64
	const steps = 30
	var a0 uint64
	for i := 0; i <= steps; i++ {
		if i == 1 {
			a0 = heapAllocs() // step 0 warms the arenas
		}
		t0 := time.Now()
		pred := g.Forward(xb)
		t1 := time.Now()
		_, grad = nn.MSELossInto(grad, pred, yb)
		t2 := time.Now()
		g.Backward(grad)
		t3 := time.Now()
		opt.Step(g.Params())
		fwd = append(fwd, t1.Sub(t0).Seconds())
		bwd = append(bwd, t3.Sub(t2).Seconds())
	}
	out["nn.allocs_per_step"] = float64(heapAllocs()-a0) / steps
	out["nn.forward_ms.q90"] = 1e3 * minOf(fwd)
	out["nn.backward_ms.q90"] = 1e3 * minOf(bwd)
	return nil
}

// layers runs the decomposed evaluation of every candidate and the step
// probe, and reports the kernel, nn, arch and search numbers.
func (s *evalSection) layers(tr *tracer, out map[string]float64) error {
	if len(s.evalWall) == 0 {
		return fmt.Errorf("eval section has no traced rep")
	}
	quiet, _ := quietSum(s.evalWall)
	out["search.eval_ms"] = 1e3 * quiet / float64(len(s.list))
	out["search.runner_overhead_us"] = 1e6 * minOf(s.overhead)
	out["search.tail_idle_ms"] = 1e3 * minOf(s.idle)

	// One decomposed evaluation per candidate: the first len(cands) ops of
	// either list hold each candidate once.
	var trainSec, trainGFLOP float64
	for idx := range s.cands {
		c := s.list[idx]
		d, err := s.decomposed(tr, idx)
		if err != nil {
			return err
		}
		if math.Float64bits(d.reward) != math.Float64bits(s.rewards[idx]) {
			return fmt.Errorf("decomposed evaluation of %s scored %v, the evaluator %v", c.label, d.reward, s.rewards[idx])
		}
		trainSec += d.trainSec
		trainGFLOP += d.trainGFLOP
		out["nn.params."+c.label] = float64(c.params)
		out["nn.train_ms."+c.label] = 1e3 * d.trainSec
		switch c.label {
		case "q10": // where building is the largest share of an evaluation
			out["arch.build_allocs"] = d.buildAllocs
		case "q90":
			out["nn.epoch_ms.q90"] = 1e3 * minOf(d.epochSec)
		}
	}
	out["nn.predict_ms"] = 1e3 * minOf(tr.durations("nn.predict"))
	out["arch.build_ms"] = 1e3 * minOf(tr.durations("arch.build"))
	if err := s.stepProbe(out); err != nil {
		return err
	}

	gflops := gemmProbe(64, 96, 384)
	out["kernel.gemm_gflops"] = gflops
	out["kernel.gemm_b1_gflops"] = gemmProbe(1, 96, 384)
	// The share of training time the GEMMs would take at the probe's speed.
	out["kernel.gemm_share"] = trainGFLOP / gflops / trainSec
	return nil
}

// gemmProbe times kernel.Gemm on an m×k by k×n product, the shape of an
// LSTM(96) recurrence at batch m, and returns the best GFLOP/s seen.
func gemmProbe(m, k, n int) float64 {
	rng := tensor.NewRNG(3)
	a, b, dst := make([]float64, m*k), make([]float64, k*n), make([]float64, m*n)
	rng.FillNormal(a, 1)
	rng.FillNormal(b, 1)
	gemm := func() {
		kernel.Gemm(kernel.MatOf(m, n, dst), kernel.MatOf(m, k, a), kernel.MatOf(k, n, b), false, false, false)
	}
	gemm()
	calls := 1 + 2_000_000/(m*k*n)
	best := math.Inf(1)
	for pass := 0; pass < 20; pass++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			gemm()
		}
		if d := time.Since(t0).Seconds() / float64(calls); d < best {
			best = d
		}
	}
	return 2 * float64(m*k*n) / best / 1e9
}
