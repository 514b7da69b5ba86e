// Package kernel is the deterministic compute-kernel layer underneath
// internal/tensor and internal/nn: a register-tiled GEMM with a single
// dst-first entry point (Gemm) whose micro-kernels read the operands in
// place through their strides, the fused LSTM forward gate sweep
// (LSTMForwardStep), the elementwise family that is every other loop of
// a training step (AdamStep, LSTMBackwardStep, ReLU, ReLUGrad, AddTo,
// AddRows, SumRows; see elem.go), and a slab arena for hot-path scratch.
// The tensor MatMul* family and the nn training loop are thin wrappers
// over this package.
//
// Determinism contract: for a fixed Config path (generic vs SIMD) the
// result of every kernel is a pure function of its inputs — goroutine
// parallelism partitions destination rows into disjoint blocks, every
// output element is one accumulator summed over k in order whether its
// operands were read in place or from packed copies, and pooled scratch
// is always fully initialized before use. That makes serial-vs-parallel
// runs bit-identical, which the tests pin. For GEMM and the forward
// sweep, SIMD and generic paths agree to rounding (FMA fuses the
// multiply-adds, the vector exponential is its own polynomial), not
// bitwise; the elementwise family's are bitwise equal.
package kernel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Mat is a strided row-major float64 matrix view: element (i, j) lives
// at Data[i*Stride+j]. Stride >= C lets a Mat view one timestep of a
// (batch, time, feature) tensor without copying.
type Mat struct {
	R, C, Stride int
	Data         []float64
}

// MatOf wraps a dense row-major r×c slice (len r*c) as a Mat.
func MatOf(r, c int, data []float64) Mat {
	if len(data) < r*c {
		panic(fmt.Sprintf("kernel: MatOf %dx%d over %d floats", r, c, len(data)))
	}
	return Mat{R: r, C: c, Stride: c, Data: data}
}

// Row returns a view of row i (length C).
func (m Mat) Row(i int) []float64 { return m.Data[i*m.Stride : i*m.Stride+m.C] }

// ok reports whether the view is self-consistent and fully backed.
func (m Mat) ok() bool {
	if m.R < 0 || m.C < 0 || m.Stride < m.C {
		return false
	}
	if m.R == 0 || m.C == 0 {
		return true
	}
	return (m.R-1)*m.Stride+m.C <= len(m.Data)
}

// Config selects the execution policy for kernel calls. The zero value
// is valid: auto-detected SIMD path, GOMAXPROCS workers, and a parallel
// cutover of DefaultParallelThreshold FLOPs. Configs are plain values;
// callers that want a different policy pass their own.
type Config struct {
	// Workers caps the goroutines a single kernel call may fan out to.
	// 0 means runtime.GOMAXPROCS(0); 1 forces serial execution.
	Workers int
	// ParallelThreshold is the FLOP count (2·m·n·k for GEMM) below
	// which a call stays serial regardless of Workers. 0 means
	// DefaultParallelThreshold.
	ParallelThreshold int
	// ForceGeneric bypasses the SIMD micro-kernels and runs the pure-Go
	// blocked path (used by tests and the cross-ISA determinism check).
	ForceGeneric bool
}

// DefaultParallelThreshold is the serial/parallel FLOP cutover: below
// this, goroutine fan-out costs more than it saves. Waking an idle core
// costs the caller about 20 µs on the two-vCPU benchmark box, which the
// SIMD kernels' 80+ GFLOP/s turn into a break-even near 19 MFLOP (two
// workers lose by that 20 µs at 5 and 9 MFLOP, win 1.65× at 38): an
// LSTM's per-timestep products stay serial, its bulk ones fan out.
const DefaultParallelThreshold = 1 << 24

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) threshold() int {
	if c.ParallelThreshold > 0 {
		return c.ParallelThreshold
	}
	return DefaultParallelThreshold
}

// Stats are the process-wide kernel counters, cheap enough to leave on
// permanently; the benchmark harness and the /metrics exposition read them.
type Stats struct {
	GemmCalls uint64 `json:"gemm_calls"`
	GemmFLOPs uint64 `json:"gemm_flops"`
}

var gemmCalls, gemmFLOPs atomic.Uint64

// ReadStats returns a snapshot of the cumulative kernel counters.
func ReadStats() Stats {
	return Stats{GemmCalls: gemmCalls.Load(), GemmFLOPs: gemmFLOPs.Load()}
}

// parallelRows runs body(lo, hi) over a partition of [0, n) rows.
// Blocks are disjoint and each row is processed exactly as in the
// serial case, so results are bit-identical for any worker count. The
// partition aligns to `align` rows (the micro-kernel height) so tile
// boundaries never straddle workers.
//
//podnas:hotpath
func (c Config) parallelRows(n, flopsPerRow, align int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := c.workers()
	if w > n {
		w = n
	}
	if w <= 1 || n*flopsPerRow < c.threshold() {
		body(0, n)
		return
	}
	if align < 1 {
		align = 1
	}
	blocks := (n + align - 1) / align
	if w > blocks {
		w = blocks
	}
	chunk := (blocks + w - 1) / w
	var wg sync.WaitGroup //podnas:allow hotalloc WaitGroup escapes into workers on the parallel path only
	for lo := chunk; lo < blocks; lo += chunk {
		hi := lo + chunk
		if hi > blocks {
			hi = blocks
		}
		rlo, rhi := lo*align, hi*align
		if rhi > n {
			rhi = n
		}
		wg.Add(1)
		go func(rlo, rhi int) { //podnas:allow hotalloc per-block worker closure on the parallel path only
			defer wg.Done()
			body(rlo, rhi)
		}(rlo, rhi)
	}
	body(0, min(chunk*align, n)) // the caller is the first worker
	wg.Wait()
}
