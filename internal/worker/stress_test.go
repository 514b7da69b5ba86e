package worker_test

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"podnas/internal/arch"
	"podnas/internal/search"
	"podnas/internal/worker"
)

// waitGoroutines waits for the goroutine count to settle back to roughly
// the baseline, tolerating the runtime's own background goroutines.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	const slack = 6
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// killStorm SIGKILLs a random live worker every interval until stop closes.
// This is the test's external chaos monkey: real kill -9 against real
// worker processes, not simulated faults.
func killStorm(pool *worker.Pool, interval time.Duration, seed int64, stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(seed))
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			pids := pool.Pids()
			if len(pids) == 0 {
				continue
			}
			syscall.Kill(pids[rng.Intn(len(pids))], syscall.SIGKILL)
		}
	}
}

// TestPoolKillStormStress runs a pooled search while an external process
// randomly SIGKILLs workers, asserting the evaluation budget is fully spent
// and no goroutines leak. Run under -race (CI does).
func TestPoolKillStormStress(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-storm stress test skipped in -short mode")
	}
	baseline := runtime.NumGoroutine()

	opts := fastPoolOptions()
	opts.Workers = 3
	opts.MaxRestarts = 200 // the storm is relentless; the budget must outlast it
	opts.RestartBackoff = 5 * time.Millisecond
	opts.Transport = pipe(helperCommand(func(int, int) []string { return []string{"HELPER_SLEEP=25ms"} }))
	pool, err := worker.NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	go killStorm(pool, 60*time.Millisecond, 42, stop)

	const seed, evals = 11, 15
	rs, err := search.NewRandomSearch(arch.Default(), seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.RunAsync(rs, pool, search.RunAsyncOptions{
		Workers: 3, MaxEvals: evals, Seed: seed, Retries: 5,
	})
	close(stop)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != evals {
		t.Fatalf("budget not spent under kill storm: %d of %d evaluations", len(res), evals)
	}
	errored := 0
	for _, r := range res {
		if r.Err != nil {
			errored++
			continue
		}
		want := mockReward(r.Arch, seed+uint64(r.Index)*0x9e37)
		if r.Reward != want {
			t.Fatalf("eval %d reward %v, want %v", r.Index, r.Reward, want)
		}
	}
	// The pool absorbs crashes by re-dispatching and the runner retries
	// transient failures on top, so under a storm the vast majority of the
	// budget still yields real rewards.
	if errored > evals/3 {
		t.Fatalf("%d of %d evaluations errored despite re-dispatch and retries", errored, evals)
	}
	st := pool.Stats()
	t.Logf("kill-storm stats: %+v, %d errored results", st, errored)
	if st.Crashes == 0 {
		t.Fatalf("storm killed nothing (stats %+v); test is vacuous", st)
	}

	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)
}

// babysitAgent keeps one TCP worker agent alive on a fixed address: it
// re-execs the test binary in agent mode, waits for the LISTENING line, and
// respawns the process whenever the fault injector SIGKILLs it — each
// incarnation with fresh fault seeds, like a batch scheduler refilling a
// node. Closing stop kills the current incarnation; the returned channel
// closes once the babysitter has fully wound down.
func babysitAgent(t *testing.T, addr string, env func(incarnation int) []string, stop <-chan struct{}) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for incarnation := 0; ; incarnation++ {
			select {
			case <-stop:
				return
			default:
			}
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "PODNAS_WORKER_HELPER=1", "HELPER_LISTEN="+addr)
			cmd.Env = append(cmd.Env, env(incarnation)...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Error(err)
				return
			}
			if err := cmd.Start(); err != nil {
				t.Error(err)
				return
			}
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				if strings.HasPrefix(sc.Text(), "LISTENING") {
					break
				}
			}
			waitDone := make(chan struct{})
			go func() {
				_ = cmd.Wait()
				close(waitDone)
			}()
			select {
			case <-stop:
				_ = cmd.Process.Kill()
				<-waitDone
				return
			case <-waitDone:
				// Storm-killed (or failed to bind); respawn after a beat so a
				// persistent failure cannot spin.
				time.Sleep(20 * time.Millisecond)
			}
		}
	}()
	return done
}

// waitDialable blocks until every address accepts a TCP connection, so a
// pool is never created against agents that have not bound their ports yet
// (a refused dial with no worker ever ready is the pool's fast-degradation
// signal, which would retire the slot instantly).
func waitDialable(t *testing.T, addrs []string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for _, addr := range addrs {
		for {
			c, err := net.DialTimeout("tcp", addr, time.Second)
			if err == nil {
				c.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("agent on %s never became dialable: %v", addr, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestDialPoolKillStormResume is the distributed kill storm: two loopback
// agents whose fault injectors SIGKILL the whole agent process mid-
// evaluation, babysitters respawning each one, and a two-phase search —
// checkpoint every result, then resume from the written checkpoint into a
// fresh pool — that must still spend its full budget. Run under -race (CI
// does).
func TestDialPoolKillStormResume(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-storm stress test skipped in -short mode")
	}
	baseline := runtime.NumGoroutine()

	// Reserve two loopback ports so respawned agents rebind the same address
	// the driver keeps dialing.
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	stopAgents := make(chan struct{})
	var agentsDone []<-chan struct{}
	for i, addr := range addrs {
		i := i
		agentsDone = append(agentsDone, babysitAgent(t, addr, func(incarnation int) []string {
			return []string{
				"HELPER_SLEEP=20ms",
				"HELPER_KILLRATE=0.25",
				fmt.Sprintf("HELPER_KILLSEED=%d", 7+uint64(i)*1000+uint64(incarnation)*7919),
			}
		}, stopAgents))
	}

	newPool := func() *worker.Pool {
		waitDialable(t, addrs)
		opts := dialPoolOptions(addrs...)
		opts.Workers = 2
		opts.MaxRestarts = 200 // the storm is relentless; the budget must outlast it
		opts.RestartBackoff = 5 * time.Millisecond
		opts.MaxBackoff = 250 * time.Millisecond
		pool, err := worker.NewPool(opts)
		if err != nil {
			t.Fatal(err)
		}
		return pool
	}

	const seed, phase1, evals = 11, 6, 14
	path := filepath.Join(t.TempDir(), "storm.ckpt")

	// Phase 1: run part of the budget, checkpointing every result.
	rs1, err := search.NewRandomSearch(arch.Default(), seed)
	if err != nil {
		t.Fatal(err)
	}
	pool1 := newPool()
	res1, err := search.RunAsync(rs1, pool1, search.RunAsyncOptions{
		Workers: 2, MaxEvals: phase1, Seed: seed, Retries: 5,
		Checkpoint: &search.Checkpointer{Path: path, Every: 1},
	})
	st1 := pool1.Stats()
	if cerr := pool1.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatalf("phase 1 failed: %v", err)
	}
	if len(res1) != phase1 {
		t.Fatalf("phase 1 budget not spent: %d of %d evaluations", len(res1), phase1)
	}
	ck, err := search.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.NumResults() != phase1 {
		t.Fatalf("checkpoint stores %d results, phase 1 produced %d", ck.NumResults(), phase1)
	}

	// Phase 2: resume from the checkpoint into a fresh pool, still under the
	// storm, and finish the budget. The seeded searcher is deliberately
	// different — Resume must restore the phase-1 state over it.
	rs2, err := search.NewRandomSearch(arch.Default(), 999)
	if err != nil {
		t.Fatal(err)
	}
	pool2 := newPool()
	res2, err := search.RunAsync(rs2, pool2, search.RunAsyncOptions{
		Workers: 2, MaxEvals: evals, Seed: seed, Retries: 5, Resume: ck,
	})
	st2 := pool2.Stats()
	if cerr := pool2.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	close(stopAgents)
	for _, d := range agentsDone {
		<-d
	}
	if err != nil {
		t.Fatalf("resumed phase failed: %v", err)
	}
	if len(res2) != evals {
		t.Fatalf("budget not spent after resume: %d of %d evaluations", len(res2), evals)
	}
	errored := 0
	for _, r := range res2 {
		if r.Err != nil {
			errored++
			continue
		}
		want := mockReward(r.Arch, seed+uint64(r.Index)*0x9e37)
		if r.Reward != want {
			t.Fatalf("eval %d reward %v, want %v", r.Index, r.Reward, want)
		}
	}
	if errored > evals/3 {
		t.Fatalf("%d of %d evaluations errored despite re-dispatch and retries", errored, evals)
	}
	t.Logf("TCP kill-storm stats: phase1 %+v, phase2 %+v, %d errored results", st1, st2, errored)
	if st1.Crashes+st2.Crashes+st1.Disconnects+st2.Disconnects == 0 {
		t.Fatalf("storm killed nothing (phase1 %+v, phase2 %+v); test is vacuous", st1, st2)
	}
	waitGoroutines(t, baseline)
}

// TestPoolKillStormWithCancellation layers context cancellation on top of
// the kill storm: the search must stop promptly and cleanly, returning its
// completed results without leaking goroutines or processes.
func TestPoolKillStormWithCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-storm stress test skipped in -short mode")
	}
	baseline := runtime.NumGoroutine()

	opts := fastPoolOptions()
	opts.Workers = 3
	opts.MaxRestarts = 200
	opts.RestartBackoff = 5 * time.Millisecond
	opts.Transport = pipe(helperCommand(func(int, int) []string { return []string{"HELPER_SLEEP=40ms"} }))
	pool, err := worker.NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	go killStorm(pool, 70*time.Millisecond, 7, stop)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(400 * time.Millisecond)
		cancel()
	}()
	const seed = 23
	rs, err := search.NewRandomSearch(arch.Default(), seed)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	res, err := search.RunAsyncCtx(ctx, rs, pool, search.RunAsyncOptions{
		Workers: 3, MaxEvals: 500, Seed: seed, Retries: 3,
	})
	close(stop)
	if err != nil {
		t.Fatalf("cancelled run returned error: %v", err)
	}
	if took := time.Since(t0); took > 30*time.Second {
		t.Fatalf("cancelled run took %v to wind down", took)
	}
	if len(res) >= 500 {
		t.Fatalf("run was not actually interrupted (%d results)", len(res))
	}

	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)
}
