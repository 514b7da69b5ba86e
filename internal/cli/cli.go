// Package cli holds the flag plumbing and error→exit-code policy shared by
// the podnas command-line binaries (nasrun, nasd), so the two front ends
// cannot drift apart on what an exit status means, how a worker subprocess
// is spawned, which worker flags are valid, or how the degradation ladder
// is assembled.
package cli

import (
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"podnas"
	"podnas/internal/obs"
	"podnas/internal/obs/span"
	"podnas/internal/search"
	"podnas/internal/worker"
)

// Exit codes, common to every podnas binary. Schedulers and shell scripts
// branch on the failure class.
const (
	ExitFailure     = 1 // generic runtime failure
	ExitUsage       = 2 // bad flags, unknown method, invalid options
	ExitCheckpoint  = 3 // unreadable or corrupted checkpoint
	ExitInterrupt   = 4 // interrupted before any evaluation succeeded
	ExitBudget      = 5 // evaluation budget exhausted without a success
	ExitUnavailable = 6 // daemon unavailable: queue full, draining, or state dir already owned
)

// ExitCode maps an error onto the documented exit codes via the podnas
// sentinels.
func ExitCode(err error) int {
	switch {
	case errors.Is(err, podnas.ErrBadMethod), errors.Is(err, podnas.ErrBadOptions):
		return ExitUsage
	case errors.Is(err, podnas.ErrBadCheckpoint):
		return ExitCheckpoint
	case errors.Is(err, podnas.ErrInterrupted):
		return ExitInterrupt
	case errors.Is(err, podnas.ErrBudgetExhausted):
		return ExitBudget
	case errors.Is(err, podnas.ErrUnavailable):
		return ExitUnavailable
	}
	return ExitFailure
}

// SplitAddrs parses a -connect list: comma-separated, blanks tolerated.
func SplitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// WorkerCommand builds the exec.Cmd factory for pipe-spawned local workers:
// the nasrun binary at exe re-executed in -worker mode. Ladder spawns every
// subprocess worker through it, so the worker command line has one
// definition.
func WorkerCommand(exe, grid string, epochs int, heartbeat time.Duration, faultKill float64, killBase uint64) func(int, int) *exec.Cmd {
	return func(id, incarnation int) *exec.Cmd {
		args := []string{
			"-worker", "-grid", grid,
			"-epochs", strconv.Itoa(epochs),
			"-heartbeat", heartbeat.String(),
		}
		if faultKill > 0 {
			// Perturb the fault seed per incarnation so a restarted
			// worker does not re-draw the same fatal decision forever.
			fs := killBase + uint64(id)*1000 + uint64(incarnation)*7919
			args = append(args,
				"-faultkill", strconv.FormatFloat(faultKill, 'g', -1, 64),
				"-faultseed", strconv.FormatUint(fs, 10))
		}
		return exec.Command(exe, args...)
	}
}

// Ladder is the worker-flag set nasrun and nasd share, and the one builder
// of the degradation ladder those flags describe: remote agents (Connect),
// then local subprocess workers (WorkerBin), then in-process evaluation.
// With neither Connect nor WorkerBin there is no pool at all and the caller
// evaluates in-process directly.
type Ladder struct {
	// Connect is the -connect list: comma-separated agent addresses.
	Connect string
	// WorkerBin is the nasrun binary re-executed in -worker mode for the
	// subprocess rung: nasrun's own executable, nasd's -workerbin.
	WorkerBin string
	// Grid is passed to spawned workers so they build the same pipeline.
	Grid string
	// Heartbeat, MaxRestarts, DialTimeout, ReadTimeout are the flags of the
	// same names.
	Heartbeat   time.Duration
	MaxRestarts int
	DialTimeout time.Duration
	ReadTimeout time.Duration
	// Speculate, KillNth, FaultKill, FaultSeed are nasrun's -speculate and
	// fault-injection flags; nasd leaves them zero.
	Speculate time.Duration
	KillNth   int
	FaultKill float64
	FaultSeed uint64
}

// Pooled reports whether the flags ask for a worker pool at all.
func (l Ladder) Pooled() bool { return l.Connect != "" || l.WorkerBin != "" }

// Validate rejects worker flags that cannot work, before any pipeline or
// pool exists. Every error wraps podnas.ErrBadOptions (exit code 2).
func (l Ladder) Validate() error {
	switch {
	case l.Heartbeat <= 0:
		// Spawned workers get -heartbeat on their own command line and would
		// refuse it there.
		return fmt.Errorf("-heartbeat must be positive, got %v: %w", l.Heartbeat, podnas.ErrBadOptions)
	case l.ReadTimeout > 0 && l.ReadTimeout <= 3*l.Heartbeat:
		return fmt.Errorf("-readtimeout %v would cut healthy idle connections: it must exceed 3x the heartbeat interval (%v): %w",
			l.ReadTimeout, l.Heartbeat, podnas.ErrBadOptions)
	case l.Connect != "" && len(SplitAddrs(l.Connect)) == 0:
		return fmt.Errorf("-connect: no agent addresses in %q: %w", l.Connect, podnas.ErrBadOptions)
	}
	return nil
}

// NewPool builds the pool for one search: workers slots, spawned workers
// training for epochs, leases and backoff jitter seeded by seed. Slots
// whose agent stays unreachable past the restart budget fall back to local
// subprocess workers (when WorkerBin is set); when those cannot spawn
// either, or every slot has retired, the pool serves evaluations
// in-process through fallback. The caller has run Validate and closes the
// pool.
func (l Ladder) NewPool(workers, epochs int, seed uint64, fallback search.Evaluator, rec obs.Recorder, trace span.Context) (*worker.Pool, error) {
	killBase := l.FaultSeed
	if killBase == 0 {
		killBase = seed + 0x9e3779b9
	}
	opts := worker.PoolOptions{
		Workers:   workers,
		Heartbeat: l.Heartbeat, MaxRestarts: l.MaxRestarts, Seed: seed,
		SpeculativeAfter: l.Speculate, KillNth: l.KillNth,
		Fallback: fallback, Recorder: rec, Trace: trace,
	}
	var local worker.Transport
	if l.WorkerBin != "" {
		local = &worker.PipeTransport{
			Command: WorkerCommand(l.WorkerBin, l.Grid, epochs, l.Heartbeat, l.FaultKill, killBase),
		}
	}
	if l.Connect == "" {
		opts.Transport = local
	} else {
		opts.Transport = &worker.DialTransport{
			Addrs: SplitAddrs(l.Connect), DialTimeout: l.DialTimeout, ReadTimeout: l.ReadTimeout, Seed: seed,
		}
		opts.LocalFallback = local
	}
	return worker.NewPool(opts)
}
