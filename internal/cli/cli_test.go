package cli

import (
	"errors"
	"net"
	"path/filepath"
	"testing"
	"time"

	"podnas"
	"podnas/internal/arch"
	"podnas/internal/obs/span"
	"podnas/internal/tensor"
)

// TestLadderValidate pins the worker-flag checks both front ends share.
// nasd took these flags without checking them: a read timeout at or under
// the heartbeat timeout cuts healthy idle links, a non-positive heartbeat
// spawns workers that refuse their own command line, and a -connect list
// with no addresses silently ran in-process.
func TestLadderValidate(t *testing.T) {
	// The flag defaults as each binary fills them in.
	binaries := map[string]Ladder{
		"nasrun": {Grid: "small", Heartbeat: time.Second, MaxRestarts: 3, DialTimeout: 5 * time.Second},
		"nasd":   {Grid: "small", Heartbeat: time.Second, MaxRestarts: 3, DialTimeout: 5 * time.Second, WorkerBin: "nasrun"},
	}
	cases := []struct {
		name string
		set  func(*Ladder)
		bad  bool
	}{
		{"defaults", func(*Ladder) {}, false},
		{"agents", func(l *Ladder) { l.Connect = "a:1, b:2" }, false},
		{"readtimeout above 3x heartbeat", func(l *Ladder) { l.ReadTimeout = 3*time.Second + 1 }, false},
		{"readtimeout at the heartbeat", func(l *Ladder) { l.ReadTimeout = time.Second }, true},
		{"readtimeout at 3x heartbeat", func(l *Ladder) { l.ReadTimeout = 3 * time.Second }, true},
		{"heartbeat zero", func(l *Ladder) { l.Heartbeat = 0 }, true},
		{"heartbeat negative", func(l *Ladder) { l.Heartbeat = -time.Second }, true},
		{"connect without addresses", func(l *Ladder) { l.Connect = " , " }, true},
	}
	for bin, defaults := range binaries {
		for _, c := range cases {
			l := defaults
			c.set(&l)
			err := l.Validate()
			switch {
			case !c.bad && err != nil:
				t.Errorf("%s, %s: rejected: %v", bin, c.name, err)
			case c.bad && (!errors.Is(err, podnas.ErrBadOptions) || ExitCode(err) != ExitUsage):
				t.Errorf("%s, %s: got %v (exit %d), want ErrBadOptions (exit %d)", bin, c.name, err, ExitCode(err), ExitUsage)
			}
		}
	}
}

// constEval is the in-process floor of the ladder under test.
type constEval float64

func (c constEval) Evaluate(arch.Arch, uint64) (float64, error) { return float64(c), nil }

// TestLadderNewPoolWalksAllRungs builds the pool the way both binaries do
// and takes every rung away but the last: the agent address refuses
// connections, the worker binary does not exist, so the evaluation must be
// served in-process — after exactly one remote → subprocess demotion.
func TestLadderNewPoolWalksAllRungs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	l := Ladder{
		Connect: dead, WorkerBin: filepath.Join(t.TempDir(), "no-such-nasrun"), Grid: "small",
		Heartbeat: 20 * time.Millisecond, MaxRestarts: 1, DialTimeout: 100 * time.Millisecond,
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	pool, err := l.NewPool(1, 1, 7, constEval(0.25), nil, span.Context{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	got, err := pool.Evaluate(arch.Default().Random(tensor.NewRNG(1)), 3)
	if err != nil || got != 0.25 {
		t.Fatalf("evaluation through the ladder = %v, %v; want the in-process floor's 0.25", got, err)
	}
	if st := pool.Stats(); !st.Degraded || st.LocalFallbacks != 1 || st.FallbackEvals != 1 || st.Connects != 0 {
		t.Fatalf("ladder not walked remote → subprocess → in-process: %+v", st)
	}

	// With neither rung configured there is no pool to build.
	if (Ladder{Heartbeat: time.Second}).Pooled() {
		t.Fatal("a ladder with no agents and no worker binary claims a pool")
	}
	if _, err := (Ladder{Heartbeat: time.Second}).NewPool(1, 1, 7, constEval(0), nil, span.Context{}); err == nil {
		t.Fatal("NewPool built a pool with no transport")
	}
}
