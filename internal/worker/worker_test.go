package worker_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"testing"
	"time"

	"podnas/internal/arch"
	"podnas/internal/obs"
	"podnas/internal/search"
	"podnas/internal/tensor"
	"podnas/internal/worker"
)

// TestMain doubles as the worker executable: when the helper marker is set,
// the test binary re-execed by a Pool runs the protocol loop against the
// mock evaluator instead of the tests. This is how the suite exercises the
// supervisor against real subprocesses and real SIGKILLs.
func TestMain(m *testing.M) {
	if os.Getenv("PODNAS_WORKER_HELPER") == "1" {
		helperMain()
		return
	}
	os.Exit(m.Run())
}

func helperMain() {
	hb := envDuration("HELPER_HEARTBEAT", 50*time.Millisecond)
	if os.Getenv("HELPER_NOBEAT") == "1" {
		hb = time.Hour // worker alive but silent: only heartbeat detection can catch it
	}
	var ev search.Evaluator = &mockEval{
		sleep:    envDuration("HELPER_SLEEP", 0),
		straggle: envDuration("HELPER_STRAGGLE", 0),
	}
	if rate := envFloat("HELPER_KILLRATE", 0); rate > 0 {
		ev = &search.FaultInjector{Inner: ev, Seed: envUint("HELPER_KILLSEED", 0), KillRate: rate}
	}
	if os.Getenv("HELPER_FOREIGN_LEASE") == "1" {
		// TestAttachment's scripted peer: fixed frames, then wait for the
		// supervisor to hang up.
		worker.ForeignLeaseScript(json.NewEncoder(os.Stdout), worker.Message{})
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}
	if addr := os.Getenv("HELPER_LISTEN"); addr != "" {
		// Agent mode: a dialable TCP worker instead of a pipe worker. The
		// LISTENING line on stdout tells the babysitting test the port is
		// bound, so it can respawn storm-killed agents without racing the
		// driver's reconnect dials.
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "helper agent:", err)
			os.Exit(1)
		}
		fmt.Printf("LISTENING %s\n", ln.Addr())
		if err := worker.ServeListener(context.Background(), ln, ev, worker.AgentOptions{Heartbeat: hb}); err != nil {
			fmt.Fprintln(os.Stderr, "helper agent:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	if err := worker.Serve(os.Stdin, os.Stdout, ev, worker.ServeOptions{Heartbeat: hb}); err != nil {
		fmt.Fprintln(os.Stderr, "helper worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func envDuration(key string, def time.Duration) time.Duration {
	if v := os.Getenv(key); v != "" {
		if d, err := time.ParseDuration(v); err == nil {
			return d
		}
	}
	return def
}

func envFloat(key string, def float64) float64 {
	if v := os.Getenv(key); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return f
		}
	}
	return def
}

func envUint(key string, def uint64) uint64 {
	if v := os.Getenv(key); v != "" {
		if u, err := strconv.ParseUint(v, 10, 64); err == nil {
			return u
		}
	}
	return def
}

// mockReward is a pure deterministic reward: identical in the helper
// process and in-process, which is what the determinism tests compare.
func mockReward(a arch.Arch, seed uint64) float64 {
	h := uint64(1469598103934665603)
	for _, g := range a {
		h = (h ^ uint64(g)) * 1099511628211
	}
	h ^= seed * 0x9e3779b97f4a7c15
	return tensor.NewRNG(h).Float64()
}

// mockEval stands in for the training evaluator: deterministic reward,
// optional context-respecting delay.
type mockEval struct {
	sleep, straggle time.Duration
}

func (m *mockEval) Evaluate(a arch.Arch, seed uint64) (float64, error) {
	return m.EvaluateCtx(context.Background(), a, seed)
}

func (m *mockEval) EvaluateCtx(ctx context.Context, a arch.Arch, seed uint64) (float64, error) {
	if d := m.sleep + m.straggle; d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-t.C:
		}
	}
	return mockReward(a, seed), nil
}

// pipe is the subprocess transport over a worker command.
func pipe(cmd func(workerID, incarnation int) *exec.Cmd) worker.Transport {
	return &worker.PipeTransport{Command: cmd}
}

// helperCommand builds a worker command that re-execs this test binary as a
// helper worker. extra adds per-spawn environment; it may inspect the
// worker id and incarnation.
func helperCommand(extra func(workerID, incarnation int) []string) func(int, int) *exec.Cmd {
	return func(workerID, incarnation int) *exec.Cmd {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "PODNAS_WORKER_HELPER=1")
		if extra != nil {
			cmd.Env = append(cmd.Env, extra(workerID, incarnation)...)
		}
		return cmd
	}
}

func fastPoolOptions() worker.PoolOptions {
	return worker.PoolOptions{
		Workers:         1,
		Transport:       pipe(helperCommand(nil)),
		Heartbeat:       50 * time.Millisecond,
		HeartbeatMisses: 4,
		MaxRestarts:     5,
		RestartBackoff:  10 * time.Millisecond,
		StartTimeout:    20 * time.Second,
		Seed:            1,
	}
}

func runPooledSearch(t *testing.T, pool *worker.Pool, seed uint64, evals, workers, retries int) []search.Result {
	t.Helper()
	rs, err := search.NewRandomSearch(arch.Default(), seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.RunAsync(rs, pool, search.RunAsyncOptions{
		Workers: workers, MaxEvals: evals, Seed: seed, Retries: retries,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// readUntil decodes frames until one of the wanted type arrives, skipping
// heartbeats and other interleaved traffic. The test's own deadline bounds
// a stream that never produces it.
func readUntil(t *testing.T, dec *json.Decoder, want string) worker.Message {
	t.Helper()
	for {
		var m worker.Message
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("waiting for %q frame: %v", want, err)
		}
		if m.Type == want {
			return m
		}
	}
}

// TestServeRoundTrip drives the raw protocol against an in-process Serve
// over pipes: ready, heartbeat, eval, cancel of an in-flight job, shutdown.
func TestServeRoundTrip(t *testing.T) {
	supIn, wkOut := io.Pipe() // worker → supervisor
	wkIn, supOut := io.Pipe() // supervisor → worker
	done := make(chan error, 1)
	go func() {
		done <- worker.Serve(wkIn, wkOut, &mockEval{sleep: 5 * time.Second}, worker.ServeOptions{Heartbeat: 20 * time.Millisecond})
	}()
	dec := json.NewDecoder(supIn)
	enc := json.NewEncoder(supOut)

	readUntil(t, dec, worker.MsgReady)
	readUntil(t, dec, worker.MsgHeartbeat) // liveness while idle
	// Start a slow evaluation, then cancel it: the result must come back
	// promptly with a transient cancellation error, not after 5s.
	a := arch.Default().Random(tensor.NewRNG(3))
	if err := enc.Encode(worker.Message{Type: worker.MsgEval, ID: 7, Arch: a, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(worker.Message{Type: worker.MsgCancel, ID: 7}); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	res := readUntil(t, dec, worker.MsgResult)
	if res.ID != 7 || res.Err == "" || !res.Transient {
		t.Fatalf("cancelled eval result = %+v, want transient error for id 7", res)
	}
	if time.Since(t0) > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt", time.Since(t0))
	}
	if err := enc.Encode(worker.Message{Type: worker.MsgShutdown}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after shutdown")
	}
}

// TestPoolDeterminismMatchesInProcess is the determinism contract: a
// single-worker isolated run reproduces the in-process search history bit
// for bit (same architectures, same rewards, same order).
func TestPoolDeterminismMatchesInProcess(t *testing.T) {
	const seed, evals = 17, 8
	rs, err := search.NewRandomSearch(arch.Default(), seed)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := search.RunAsync(rs, &mockEval{}, search.RunAsyncOptions{Workers: 1, MaxEvals: evals, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	pool, err := worker.NewPool(fastPoolOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pooled := runPooledSearch(t, pool, seed, evals, 1, 0)

	if len(direct) != len(pooled) {
		t.Fatalf("history lengths differ: %d in-process vs %d pooled", len(direct), len(pooled))
	}
	for i := range direct {
		if direct[i].Arch.Key() != pooled[i].Arch.Key() {
			t.Fatalf("eval %d arch: in-process %s, pooled %s", i, direct[i].Arch.Key(), pooled[i].Arch.Key())
		}
		if direct[i].Reward != pooled[i].Reward {
			t.Fatalf("eval %d reward: in-process %v, pooled %v (must be bit-identical)", i, direct[i].Reward, pooled[i].Reward)
		}
		if pooled[i].Err != nil {
			t.Fatalf("pooled eval %d errored: %v", i, pooled[i].Err)
		}
	}
}

// TestPoolSurvivesInjectedKill SIGKILLs the worker handling the second
// dispatch (KillNth) and asserts the search still spends its full budget
// with every reward intact — the lost evaluation is re-dispatched.
func TestPoolSurvivesInjectedKill(t *testing.T) {
	opts := fastPoolOptions()
	opts.Workers = 2
	opts.KillNth = 2
	opts.Transport = pipe(helperCommand(func(int, int) []string { return []string{"HELPER_SLEEP=30ms"} }))
	pool, err := worker.NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const seed, evals = 5, 6
	res := runPooledSearch(t, pool, seed, evals, 2, 0)
	if len(res) != evals {
		t.Fatalf("budget not spent: %d of %d evaluations", len(res), evals)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("eval %d errored: %v", r.Index, r.Err)
		}
		want := mockReward(r.Arch, seed+uint64(r.Index)*0x9e37)
		if r.Reward != want {
			t.Fatalf("eval %d reward %v, want %v", r.Index, r.Reward, want)
		}
	}
	st := pool.Stats()
	if st.Crashes < 1 {
		t.Fatalf("expected at least one crash, stats %+v", st)
	}
	if st.Redispatches < 1 {
		t.Fatalf("expected the killed evaluation to be re-dispatched, stats %+v", st)
	}
	if st.Restarts < 1 {
		t.Fatalf("expected the killed worker to be restarted, stats %+v", st)
	}
}

// TestPoolSurvivesSelfKill exercises the FaultInjector's process-kill mode
// inside real workers: each evaluation has a chance of SIGKILLing its own
// process mid-flight. Incarnation-perturbed fault seeds keep a restarted
// worker from re-drawing the same fatal decision forever. The kill draw is a
// function of (slot incarnation seed, evaluation seed, attempt), so one slot
// fed by one runner worker fixes which incarnation takes which evaluation —
// with two slots that is the scheduler's choice, and some assignments
// contain no kill at all.
func TestPoolSurvivesSelfKill(t *testing.T) {
	opts := fastPoolOptions()
	opts.MaxRestarts = 20
	opts.Transport = pipe(helperCommand(func(workerID, incarnation int) []string {
		return []string{
			"HELPER_KILLRATE=0.4",
			fmt.Sprintf("HELPER_KILLSEED=%d", 99+uint64(workerID)*1000+uint64(incarnation)*7919),
		}
	}))
	pool, err := worker.NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const seed, evals = 3, 8
	res := runPooledSearch(t, pool, seed, evals, 1, 2)
	if len(res) != evals {
		t.Fatalf("budget not spent: %d of %d evaluations", len(res), evals)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("eval %d errored: %v", r.Index, r.Err)
		}
	}
	if st := pool.Stats(); st.Crashes < 1 {
		t.Fatalf("kill rate 0.4 over %d evals injected no crashes, stats %+v", evals, st)
	}
}

// TestPoolHeartbeatTimeout starts workers that go silent after the ready
// handshake; the supervisor must detect them via missed heartbeats, burn
// the restart budget, and degrade to the fallback evaluator.
func TestPoolHeartbeatTimeout(t *testing.T) {
	opts := fastPoolOptions()
	opts.Workers = 2
	opts.Heartbeat = 30 * time.Millisecond
	opts.HeartbeatMisses = 2
	opts.MaxRestarts = 1
	opts.Fallback = &mockEval{}
	opts.Transport = pipe(helperCommand(func(int, int) []string { return []string{"HELPER_NOBEAT=1"} }))
	pool, err := worker.NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	deadline := time.Now().Add(20 * time.Second)
	for !pool.Stats().Degraded {
		if time.Now().After(deadline) {
			t.Fatalf("pool never degraded; stats %+v", pool.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	st := pool.Stats()
	if st.HeartbeatTimeouts < 1 {
		t.Fatalf("no heartbeat timeouts recorded, stats %+v", st)
	}
	a := arch.Default().Random(tensor.NewRNG(1))
	got, err := pool.Evaluate(a, 42)
	if err != nil {
		t.Fatalf("degraded evaluation failed: %v", err)
	}
	if want := mockReward(a, 42); got != want {
		t.Fatalf("fallback reward %v, want %v", got, want)
	}
	if st := pool.Stats(); st.FallbackEvals < 1 {
		t.Fatalf("fallback not used, stats %+v", st)
	}
}

// poolWatch is a Recorder that forwards worker-spawn, spec-launch and
// spec-win events, so a test can wait for them instead of sleeping.
type poolWatch chan obs.Event

func (w poolWatch) Record(e obs.Event) {
	switch e.Kind {
	case obs.KindWorkerSpawn, obs.KindSpecLaunch, obs.KindSpecWin:
		w <- e
	}
}

// TestPoolSpeculativeReexecution parks one straggler worker and asserts the
// speculative copy on the healthy worker wins while the loser is cancelled.
func TestPoolSpeculativeReexecution(t *testing.T) {
	opts := fastPoolOptions()
	opts.Workers = 2
	opts.SpeculativeAfter = 150 * time.Millisecond
	opts.Transport = pipe(helperCommand(func(workerID, _ int) []string {
		if workerID == 0 {
			return []string{"HELPER_STRAGGLE=30s"} // pathological straggler
		}
		return nil
	}))
	// Sized to the most spawn events the restart budget allows plus the one
	// launch and win, so Record never blocks a supervisor.
	events := make(poolWatch, opts.Workers*(opts.MaxRestarts+1)+2)
	opts.Recorder = events
	pool, err := worker.NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Readiness is explicit: both slots attached before anything is
	// submitted, or the healthy slot alone would drain the queue.
	for attached := map[int]bool{}; len(attached) < opts.Workers; {
		select {
		case e := <-events:
			attached[e.Worker] = true
		case <-ctx.Done():
			t.Fatalf("slots %v attached, want %d", attached, opts.Workers)
		}
	}
	if ids := pool.Identities(); len(ids) != opts.Workers {
		t.Fatalf("identities %v, want %d attached slots", ids, opts.Workers)
	}

	// An evaluation either comes back at once (the healthy slot took it) or
	// is held by the straggler until its speculative copy wins on the
	// healthy slot, long before the 30s are up. Which idle slot takes one is
	// the scheduler's choice, so submit one at a time until one was held.
	space := arch.Default()
	rng := tensor.NewRNG(2)
	held := 0 // the pool numbers submissions from 1
	for pool.Stats().SpeculativeRuns < 1 {
		held++
		a, seed := space.Random(rng), uint64(99+held)
		r, err := pool.EvaluateCtx(ctx, a, seed)
		if err != nil {
			t.Fatalf("evaluation errored: %v (stats %+v)", err, pool.Stats())
		}
		if want := mockReward(a, seed); r != want {
			t.Fatalf("reward %v, want %v", r, want)
		}
	}
	// With the straggler parked for 30s nothing but the copy can have
	// answered, so the win must be accounted to the evaluation it held. The
	// event is recorded after the result is handed over: wait for it.
	for won := false; !won; {
		select {
		case e := <-events:
			if won = e.Kind == obs.KindSpecWin; won && e.Eval != held {
				t.Fatalf("spec_win for evaluation %d, want %d", e.Eval, held)
			}
		case <-ctx.Done():
			t.Fatalf("evaluation %d was held by the straggler but no spec_win arrived (stats %+v)", held, pool.Stats())
		}
	}
	if st := pool.Stats(); st.SpeculativeWins != 1 {
		t.Fatalf("spec_win event without the matching counter: stats %+v", st)
	}
}

// TestPoolDegradesWhenSpawningUnavailable points the pool at a nonexistent
// binary: it must fall back to in-process evaluation instead of failing.
func TestPoolDegradesWhenSpawningUnavailable(t *testing.T) {
	opts := fastPoolOptions()
	opts.Fallback = &mockEval{}
	opts.Transport = pipe(func(int, int) *exec.Cmd {
		return exec.Command("/nonexistent/podnas-worker-binary")
	})
	pool, err := worker.NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	a := arch.Default().Random(tensor.NewRNG(9))
	got, err := pool.Evaluate(a, 7)
	if err != nil {
		t.Fatalf("degraded evaluation failed: %v", err)
	}
	if want := mockReward(a, 7); got != want {
		t.Fatalf("fallback reward %v, want %v", got, want)
	}
	st := pool.Stats()
	if !st.Degraded || st.FallbackEvals < 1 {
		t.Fatalf("pool did not degrade to fallback, stats %+v", st)
	}
}

// TestPoolDegradesToTransientErrorWithoutFallback: with no fallback a
// degraded pool must fail evaluations with ErrTransient so the runner's
// retry/recording policy applies, not hang.
func TestPoolDegradesToTransientErrorWithoutFallback(t *testing.T) {
	opts := fastPoolOptions()
	opts.Transport = pipe(func(int, int) *exec.Cmd {
		return exec.Command("/nonexistent/podnas-worker-binary")
	})
	pool, err := worker.NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	a := arch.Default().Random(tensor.NewRNG(9))
	_, err = pool.Evaluate(a, 7)
	if err == nil || !errors.Is(err, search.ErrTransient) {
		t.Fatalf("degraded pool returned %v, want ErrTransient", err)
	}
}

// TestPoolCancellation cancels the context mid-evaluation; the call must
// return the context error promptly.
func TestPoolCancellation(t *testing.T) {
	opts := fastPoolOptions()
	opts.Transport = pipe(helperCommand(func(int, int) []string { return []string{"HELPER_SLEEP=30s"} }))
	pool, err := worker.NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(300 * time.Millisecond)
		cancel()
	}()
	a := arch.Default().Random(tensor.NewRNG(4))
	t0 := time.Now()
	_, err = pool.EvaluateCtx(ctx, a, 1)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled evaluation returned %v, want context.Canceled", err)
	}
	if time.Since(t0) > 10*time.Second {
		t.Fatalf("cancellation took %v", time.Since(t0))
	}
}
