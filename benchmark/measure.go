package main

import (
	"runtime/metrics"
	"syscall"
	"time"

	"podnas/internal/fsatomic"
	"podnas/internal/kernel"
)

// cpuTime is the process's user+system CPU time. The kernel scales the two
// so that their sum is the scheduler's exact run time, so the sum is as fine
// as the wall clock even though the split is tick-sampled.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// heapAllocs is the cumulative count of heap objects allocated, read without
// stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// counters is one reading of everything the harness takes deltas of.
type counters struct {
	at        time.Time
	cpu       time.Duration
	allocs    uint64
	gemmCalls uint64
	gemmFLOPs uint64
	fsyncs    uint64
}

func readCounters() counters {
	k := kernel.ReadStats()
	return counters{
		at: time.Now(), cpu: cpuTime(), allocs: heapAllocs(),
		gemmCalls: k.GemmCalls, gemmFLOPs: k.GemmFLOPs, fsyncs: fsatomic.SyncCount(),
	}
}

var spinSink uint64

// spin runs a fixed L1-resident loop owned by the benchmark and returns how
// long it took. Its work never changes, so when it slows down the host did,
// not the program under test.
func spin() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<20; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink += x
	return time.Since(t0).Seconds()
}
