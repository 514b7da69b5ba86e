package kernel

import (
	"fmt"
	"sync"
)

// Micro-kernel families. Each computes a full mr×nr tile of C over the
// whole of k, reading A and B through strides (see callKernel); the asm
// kernels and the pure-Go fallback share that contract.
const (
	isaGeneric = iota
	isaAVX2
	isaAVX512
)

// isaDims returns the register-tile shape of a micro-kernel family.
func isaDims(isa int) (mr, nr int) {
	switch isa {
	case isaAVX512:
		return 8, 16
	case isaAVX2:
		return 6, 8
	default:
		return 4, 4
	}
}

// isa resolves the micro-kernel family for this config on this CPU.
func (c Config) isa() int {
	if c.ForceGeneric {
		return isaGeneric
	}
	if hasAVX512 {
		return isaAVX512
	}
	if hasAVX2 {
		return isaAVX2
	}
	return isaGeneric
}

// PackedB is op(B) repacked into zero-padded nr-wide column panels, the
// form a micro-kernel streams with unit stride. Gemm itself packs only
// what it cannot read where it lies (see Gemm); a caller that multiplies
// many left-hand sides by one transposed right-hand side (the LSTM's
// dz·Whᵀ carry, once per timestep) packs it once with PackB and calls
// GemmPacked, saving the per-call transposing gather.
//
// A PackedB is tied to the micro-kernel family of the Config that
// packed it; GemmPacked panics under a Config resolving to another.
type PackedB struct {
	k, n   int
	isa    int
	mr, nr int
	// Panels [0, inPlace) are read from src through its row stride;
	// panels [inPlace, nb) are packed in buf, k·nr floats each. Only
	// Gemm sets src and a non-zero inPlace, for the length of a call.
	src     Mat
	inPlace int
	buf     []float64
}

// PackB packs op(B) (k×n, where op is the identity or the transpose)
// into pb, reusing its buffer when large enough. A nil pb allocates a
// fresh one. Returns pb.
//
//podnas:hotpath
func (c Config) PackB(pb *PackedB, b Mat, transB bool) *PackedB {
	if pb == nil {
		pb = &PackedB{} //podnas:allow hotalloc nil-pb lazy construction; steady-state callers pass a reused pb
	}
	pb.pack(c.isa(), b, transB, 0)
	return pb
}

// maxStridedSpan is the longest walk, in floats from a panel's first
// row to its last, that the micro-kernels make through an operand left
// in place when consecutive p lie a row stride apart (non-transposed B,
// transposed A): 2 MiB, 512 pages. The kernels prefetch the rows ahead,
// so up to here a strided panel streams as fast as a packed one; past
// it the two operands' pages outrun the second-level TLB and every tile
// that re-reads the panel pays the page walks again (POD's Gram SᵀS
// walks 36 MB per panel and runs at half speed in place), so copying
// the panel into contiguous scratch once wins.
const maxStridedSpan = 1 << 18

// streamsInPlace reports whether a panel of k rows lying stride floats
// apart, each row `width` floats of which the kernel uses, that `readers`
// tiles will each walk end to end, is better read where it lies than
// copied into contiguous scratch first. A row must cover more than half
// a 64-byte cache line, or most of every line fetched is thrown away
// (the 4×4 kernel's rows do not); then a short walk always is, and so is
// any walk made only once.
func streamsInPlace(k, stride, width, readers int) bool {
	return width > 4 && (readers <= 1 || k*stride <= maxStridedSpan)
}

// pack copies the column panels of op(B) from inPlace on into pb's
// buffer, zero-padding a ragged last one (a kernel always reads nr
// columns); the caller reads the panels before inPlace where they lie.
//
//podnas:hotpath
func (pb *PackedB) pack(isa int, b Mat, transB bool, inPlace int) {
	if !b.ok() {
		panic(fmt.Sprintf("kernel: PackB bad view %dx%d stride %d over %d floats", b.R, b.C, b.Stride, len(b.Data)))
	}
	k, n := b.R, b.C
	if transB {
		k, n = b.C, b.R
	}
	pb.k, pb.n = k, n
	pb.isa = isa
	pb.mr, pb.nr = isaDims(isa)
	nr := pb.nr
	nb := (n + nr - 1) / nr
	pb.inPlace = inPlace
	need := (nb - inPlace) * k * nr
	if cap(pb.buf) < need {
		pb.buf = make([]float64, need) //podnas:allow hotalloc pack-buffer growth only; reused across calls
	}
	pb.buf = pb.buf[:need]
	for jb := inPlace; jb < nb; jb++ {
		j0 := jb * nr
		w := min(nr, n-j0)
		panel := pb.buf[(jb-inPlace)*k*nr:][:k*nr]
		for p := 0; p < k; p++ {
			drow := panel[p*nr : p*nr+nr]
			if transB {
				for jr := 0; jr < w; jr++ {
					drow[jr] = b.Data[(j0+jr)*b.Stride+p]
				}
			} else {
				copy(drow, b.Data[p*b.Stride+j0:p*b.Stride+j0+w])
			}
			clear(drow[w:])
		}
	}
}

// scratch is the per-worker packing buffer set, pooled so steady-state
// GEMM calls allocate nothing.
type scratch struct {
	ap []float64
	ct [8 * 16]float64 // mrMax × nrMax edge tile
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

var packPool = sync.Pool{New: func() any { return &PackedB{} }}

// Gemm computes dst = op(A)·op(B) (or dst += when accumulate is true)
// where op is the identity or the transpose per the trans flags. dst
// must be preshaped (m×n) and must not alias a or b. This is the single
// entry point the tensor MatMul* family wraps.
//
// The micro-kernels read op(A) and B through their strides where the
// caller keeps them; only a transposed B, a ragged last row block or
// column panel, and an operand whose strided walk streamsInPlace rules
// out are copied into packed scratch first.
//
//podnas:hotpath
func (c Config) Gemm(dst, a, b Mat, transA, transB, accumulate bool) {
	c.gemm(c.isa(), dst, a, b, transA, transB, accumulate)
}

// gemm is Gemm on a given micro-kernel family (the tests' seam for
// driving every family the host has).
//
//podnas:hotpath
func (c Config) gemm(isa int, dst, a, b Mat, transA, transB, accumulate bool) {
	mr, nr := isaDims(isa)
	m := a.R
	if transA {
		m = a.C
	}
	inPlace := 0
	if !transB && streamsInPlace(b.R, b.Stride, nr, (m+mr-1)/mr) {
		inPlace = b.C / nr
	}
	pb := packPool.Get().(*PackedB)
	pb.pack(isa, b, transB, inPlace)
	pb.src = b
	c.gemmPacked(dst, a, transA, pb, accumulate)
	pb.src = Mat{} // the pool must not keep the caller's matrix alive
	packPool.Put(pb)
}

// Gemm runs Config.Gemm with the default policy (auto SIMD, GOMAXPROCS
// workers).
//
//podnas:hotpath
func Gemm(dst, a, b Mat, transA, transB, accumulate bool) {
	Config{}.Gemm(dst, a, b, transA, transB, accumulate)
}

// GemmPacked is Gemm with the right-hand side already packed by PackB
// under a Config of the same micro-kernel family.
//
//podnas:hotpath
func (c Config) GemmPacked(dst, a Mat, transA bool, pb *PackedB, accumulate bool) {
	if pb.isa != c.isa() {
		panic(fmt.Sprintf("kernel: GemmPacked micro-kernel family %d, B was packed for %d", c.isa(), pb.isa))
	}
	c.gemmPacked(dst, a, transA, pb, accumulate)
}

// gemmPacked checks shapes, counts the call and fans row blocks out.
//
//podnas:hotpath
func (c Config) gemmPacked(dst, a Mat, transA bool, pb *PackedB, accumulate bool) {
	if !dst.ok() || !a.ok() {
		panic(fmt.Sprintf("kernel: Gemm bad view dst %dx%d/%d a %dx%d/%d", dst.R, dst.C, dst.Stride, a.R, a.C, a.Stride))
	}
	m, k := a.R, a.C
	if transA {
		m, k = a.C, a.R
	}
	n := pb.n
	if k != pb.k || dst.R != m || dst.C != n {
		panic(fmt.Sprintf("kernel: Gemm shape mismatch op(A) %dx%d, packed B %dx%d, dst %dx%d", m, k, pb.k, pb.n, dst.R, dst.C))
	}
	gemmCalls.Add(1)
	gemmFLOPs.Add(2 * uint64(m) * uint64(n) * uint64(k))
	if m == 0 || n == 0 {
		return
	}
	// Serial fast path avoids the escaping closure (one heap alloc per
	// call) that the goroutine fan-out needs.
	w := c.workers()
	if w <= 1 || m*2*k*n < c.threshold() {
		gemmRowBlock(dst, a, transA, pb, accumulate, 0, m)
		return
	}
	c.parallelRows(m, 2*k*n, pb.mr, func(lo, hi int) { //podnas:allow hotalloc goroutine fan-out closure; the serial fast path above avoids it
		gemmRowBlock(dst, a, transA, pb, accumulate, lo, hi)
	})
}

// gemmRowBlock computes rows [lo, hi) of dst — the per-worker unit of
// gemmPacked. Row blocks are disjoint, so any partition of [0, m) into
// aligned blocks yields bit-identical results. Every tile is one kernel
// call over the whole of k, whether its operands are read in place or
// from packed copies, so each output element sums the same products in
// the same order either way.
//
//podnas:hotpath
func gemmRowBlock(dst, a Mat, transA bool, pb *PackedB, accumulate bool, lo, hi int) {
	k, n := pb.k, pb.n
	mr, nr := pb.mr, pb.nr
	if k == 0 { // no panel to point a kernel at; the empty sum is +0
		for i := lo; i < hi && !accumulate; i++ {
			clear(dst.Data[i*dst.Stride : i*dst.Stride+n])
		}
		return
	}
	nb := (n + nr - 1) / nr
	// A is read in place as (ars, acs): rows a stride apart and p unit
	// stride, or for Aᵀ the reverse — unless p then walks too far.
	ars, acs, aInPlace := a.Stride, 1, true
	if transA {
		ars, acs, aInPlace = 1, a.Stride, streamsInPlace(k, a.Stride, mr, nb)
	}
	s := scratchPool.Get().(*scratch)
	if cap(s.ap) < k*mr {
		s.ap = make([]float64, k*mr) //podnas:allow hotalloc pooled scratch growth only; reused via scratchPool
	}
	for i0 := lo; i0 < hi; i0 += mr {
		h := min(mr, hi-i0)
		at, atRS, atCS := a.Data[i0*ars:], ars, acs
		if h < mr || !aInPlace {
			// Pack the A panel: p-major, mr-wide, zero-padded.
			src := at
			at, atRS, atCS = s.ap[:k*mr], 1, mr
			for p := 0; p < k; p++ {
				arow := at[p*mr : p*mr+mr]
				if transA {
					copy(arow[:h], src[p*acs:])
				} else {
					for ir := 0; ir < h; ir++ {
						arow[ir] = src[ir*ars+p]
					}
				}
				clear(arow[h:])
			}
		}
		for jb := 0; jb < nb; jb++ {
			j0 := jb * nr
			w := min(nr, n-j0)
			bt, bps := pb.buf, nr
			if jb < pb.inPlace {
				bt, bps = pb.src.Data[j0:], pb.src.Stride
			} else {
				bt = bt[(jb-pb.inPlace)*k*nr:]
			}
			if h == mr && w == nr {
				callKernel(pb.isa, dst.Data[i0*dst.Stride+j0:], dst.Stride, at, atRS, atCS, bt, bps, k, !accumulate)
				continue
			}
			// Edge tile: the kernel stores into a scratch tile, whose
			// live h×w corner then goes into dst.
			callKernel(pb.isa, s.ct[:], nr, at, atRS, atCS, bt, bps, k, true)
			for ir := 0; ir < h; ir++ {
				drow := dst.Data[(i0+ir)*dst.Stride+j0:][:w]
				trow := s.ct[ir*nr:][:w]
				if accumulate {
					for jr, v := range trow {
						drow[jr] += v
					}
				} else {
					copy(drow, trow)
				}
			}
		}
	}
	scratchPool.Put(s)
}

// callKernel dispatches one register tile: C (mr×nr, row stride ldc) +=
// A·B over kc products, or = when store is set, with A(i,p) at
// a[i*ars+p*acs] and B's row p at b[p*bps:][:nr]. Packed panels are the
// strides (1, mr, nr).
func callKernel(isa int, c []float64, ldc int, a []float64, ars, acs int, b []float64, bps, kc int, store bool) {
	switch isa {
	case isaAVX512:
		gemmKernel8x16(&c[0], &a[0], &b[0], int64(kc), int64(ldc), int64(ars), int64(acs), int64(bps), store)
	case isaAVX2:
		gemmKernel6x8(&c[0], &a[0], &b[0], int64(kc), int64(ldc), int64(ars), int64(acs), int64(bps), store)
	default:
		gemmKernel4x4(c, ldc, a, ars, acs, b, bps, kc, store)
	}
}

// gemmKernel4x4 is the pure-Go micro-kernel (mr=nr=4): sixteen scalar
// accumulators the compiler keeps in registers.
func gemmKernel4x4(c []float64, ldc int, a []float64, ars, acs int, b []float64, bps, kc int, store bool) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	// The two layouts a caller hands over, each indexed so that the
	// compiler drops the per-element bounds checks: four rows walked
	// contiguously (A in place), or four contiguous values per p (Aᵀ in
	// place, packed panels).
	var r0, r1, r2, r3 []float64
	if acs == 1 {
		r0 = a[:kc]
		r1, r2, r3 = a[ars:][:len(r0)], a[2*ars:][:len(r0)], a[3*ars:][:len(r0)]
	}
	for p := 0; p < kc; p++ {
		var a0, a1, a2, a3 float64
		if acs == 1 {
			a0, a1, a2, a3 = r0[p], r1[p], r2[p], r3[p]
		} else {
			ap := a[p*acs : p*acs+4]
			a0, a1, a2, a3 = ap[0], ap[1], ap[2], ap[3]
		}
		bp := b[p*bps : p*bps+4]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	acc := [4][4]float64{{c00, c01, c02, c03}, {c10, c11, c12, c13}, {c20, c21, c22, c23}, {c30, c31, c32, c33}}
	for i := range acc {
		crow := c[i*ldc : i*ldc+4]
		for j, v := range acc[i] {
			if store {
				crow[j] = v + 0 // −0 → +0, as zeroing then adding leaves it
			} else {
				crow[j] += v
			}
		}
	}
}
