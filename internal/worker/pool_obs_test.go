package worker_test

import (
	"fmt"
	"testing"
	"time"

	"podnas/internal/obs"
	"podnas/internal/worker"
)

// TestPoolEmitsSupervisionEvents runs a KillNth fault through an observed
// pool and asserts the supervision event stream mirrors PoolStats: every
// crash and restart the stats count is also on the wire, attributed to a
// valid slot.
func TestPoolEmitsSupervisionEvents(t *testing.T) {
	ring := obs.NewRing(256)
	opts := fastPoolOptions()
	opts.Workers = 2
	opts.KillNth = 2
	opts.Recorder = ring
	opts.Transport = pipe(helperCommand(func(int, int) []string { return []string{"HELPER_SLEEP=30ms"} }))
	pool, err := worker.NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	res := runPooledSearch(t, pool, 5, 6, 2, 0)
	if len(res) != 6 {
		t.Fatalf("budget not spent: %d of 6 evaluations", len(res))
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}

	st := pool.Stats()
	counts := map[obs.Kind]int{}
	for _, e := range ring.Events() {
		counts[e.Kind]++
		switch e.Kind {
		case obs.KindWorkerSpawn, obs.KindWorkerCrash, obs.KindWorkerRestart, obs.KindHeartbeatMiss:
			if e.Worker < 0 || e.Worker >= opts.Workers {
				t.Errorf("%v event on slot %d, want [0,%d)", e.Kind, e.Worker, opts.Workers)
			}
		}
	}
	if counts[obs.KindWorkerSpawn] < 3 {
		t.Errorf("spawn events %d, want >= 3 (2 initial + restart after kill)", counts[obs.KindWorkerSpawn])
	}
	if counts[obs.KindWorkerCrash] != st.Crashes {
		t.Errorf("crash events %d, stats counted %d", counts[obs.KindWorkerCrash], st.Crashes)
	}
	if counts[obs.KindWorkerRestart] != st.Restarts {
		t.Errorf("restart events %d, stats counted %d", counts[obs.KindWorkerRestart], st.Restarts)
	}
	if counts[obs.KindWorkerCrash] < 1 || counts[obs.KindWorkerRestart] < 1 {
		t.Errorf("injected kill produced no crash/restart events: %v", counts)
	}
}

// TestPoolLocalSlotIdentities pins down the per-slot identity surface for
// the pipe transport: every attached slot reports local:<pid>, Pids (the
// kill-storm hook) lists exactly those pids, and nothing claims to be
// remote.
func TestPoolLocalSlotIdentities(t *testing.T) {
	opts := fastPoolOptions()
	opts.Workers = 2
	pool, err := worker.NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if res := runPooledSearch(t, pool, 3, 4, 2, 0); len(res) != 4 {
		t.Fatalf("budget not spent: %d of 4", len(res))
	}

	// A slot can be mid-restart (e.g. a heartbeat kill under scheduler
	// pressure) at the instant the search returns; the pool re-attaches it
	// on its own, so wait for a full, mutually consistent snapshot of the
	// two identity surfaces before asserting on them.
	var ids map[int]worker.SlotIdentity
	pids := map[int]bool{}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ids = pool.Identities()
		pids = map[int]bool{}
		for _, pid := range pool.Pids() {
			pids[pid] = true
		}
		consistent := len(ids) == opts.Workers && len(pids) == len(ids)
		for _, id := range ids {
			if !pids[id.PID] {
				consistent = false
			}
		}
		if consistent || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(ids) != opts.Workers {
		t.Fatalf("identities = %v, want %d attached slots", ids, opts.Workers)
	}
	for slot, id := range ids {
		if id.Remote || id.PID <= 0 {
			t.Errorf("slot %d identity %+v, want a local pid", slot, id)
		}
		if want := fmt.Sprintf("local:%d", id.PID); id.String() != want {
			t.Errorf("slot %d identity string %q, want %q", slot, id.String(), want)
		}
		if !pids[id.PID] {
			t.Errorf("slot %d pid %d missing from Pids() %v", slot, id.PID, pool.Pids())
		}
	}
	if len(pids) != len(ids) {
		t.Errorf("Pids() lists %d processes, identities list %d", len(pids), len(ids))
	}
}

// TestPoolSpeculationEvents forces a straggler so the speculative copy is
// launched and wins, and asserts both moments appear on the event stream.
func TestPoolSpeculationEvents(t *testing.T) {
	ring := obs.NewRing(128)
	opts := fastPoolOptions()
	opts.Workers = 2
	opts.SpeculativeAfter = 60 * time.Millisecond
	opts.Recorder = ring
	// Slot 0 straggles hard; slot 1 answers fast, so the duplicate dispatch
	// of a job stuck on slot 0 decides it.
	opts.Transport = pipe(helperCommand(func(workerID, _ int) []string {
		if workerID == 0 {
			return []string{"HELPER_STRAGGLE=2s"}
		}
		return nil
	}))
	pool, err := worker.NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	res := runPooledSearch(t, pool, 11, 4, 2, 0)
	if len(res) != 4 {
		t.Fatalf("budget not spent: %d of 4", len(res))
	}
	st := pool.Stats()
	if st.SpeculativeRuns < 1 {
		t.Skip("no speculation triggered on this scheduling; nothing to assert")
	}
	counts := map[obs.Kind]int{}
	for _, e := range ring.Events() {
		counts[e.Kind]++
	}
	if counts[obs.KindSpecLaunch] != st.SpeculativeRuns {
		t.Errorf("speculation launch events %d, stats counted %d", counts[obs.KindSpecLaunch], st.SpeculativeRuns)
	}
	if counts[obs.KindSpecWin] != st.SpeculativeWins {
		t.Errorf("speculation win events %d, stats counted %d", counts[obs.KindSpecWin], st.SpeculativeWins)
	}
}
