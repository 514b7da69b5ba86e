package kernel

import (
	"math"
	"testing"
)

// testRNG is a splitmix64 kept local so the kernel package stays free
// of math/rand (detrand covers internal/kernel).
type testRNG struct{ s uint64 }

func (r *testRNG) next() float64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/float64(1<<53)*2 - 1
}

func randMat(r *testRNG, rows, cols int) Mat {
	m := MatOf(rows, cols, make([]float64, rows*cols))
	for i := range m.Data {
		m.Data[i] = r.next()
	}
	return m
}

// gemmCase is one GEMM as a caller issues it: dst (m×n) from op(A)
// (m×k) and op(B) (k×n), each view with its own row stride (0 = dense).
type gemmCase struct {
	name           string
	m, k, n        int
	transA, transB bool
	accumulate     bool
	packed         bool // B packed once outside the loop (PackB + GemmPacked)
	lda, ldb, ldc  int
}

// gapBits fills the stride gaps between a view's rows: a NaN, so a kernel
// that reads a gap poisons its result, with a payload no arithmetic
// produces, so a kernel that writes one is caught.
const gapBits = 0x7ff8_dead_beef_0001

func heap(n int) []float64 { return make([]float64, n) }

// margins allocates views inside larger backing arrays, marginFloats floats
// of gapBits on either side, and verifies afterwards that none was written.
type margins struct{ backing [][]float64 }

const marginFloats = 24

func (ma *margins) alloc(n int) []float64 {
	b := make([]float64, n+2*marginFloats)
	for i := range b {
		b[i] = math.Float64frombits(gapBits)
	}
	ma.backing = append(ma.backing, b)
	return b[marginFloats : marginFloats+n : marginFloats+n]
}

func (ma *margins) verify(t *testing.T, what string) {
	t.Helper()
	for _, b := range ma.backing {
		for i, v := range b {
			if (i < marginFloats || i >= len(b)-marginFloats) && math.Float64bits(v) != gapBits {
				t.Fatalf("%s: wrote %x outside a view", what, math.Float64bits(v))
			}
		}
	}
}

// view returns a rows×cols matrix of row stride ld (0 = dense) over
// exactly the floats it spans, taken from alloc: random inside the view,
// gapBits between its rows.
func (r *testRNG) view(rows, cols, ld int, alloc func(n int) []float64) Mat {
	if ld == 0 {
		ld = cols
	}
	span := 0
	if rows > 0 && cols > 0 {
		span = (rows-1)*ld + cols
	}
	m := Mat{R: rows, C: cols, Stride: ld, Data: alloc(span)}
	for i := range m.Data {
		m.Data[i] = math.Float64frombits(gapBits)
	}
	for i := 0; i < rows && cols > 0; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = r.next()
		}
	}
	return m
}

// operands builds the three views of a case.
func (g gemmCase) operands(r *testRNG, alloc func(n int) []float64) (dst, a, b Mat) {
	ar, ac, br, bc := opShapes(g.m, g.k, g.n, g.transA, g.transB)
	return r.view(g.m, g.n, g.ldc, alloc), r.view(ar, ac, g.lda, alloc), r.view(br, bc, g.ldb, alloc)
}

// check runs the case on one micro-kernel family over views from alloc
// and compares dst with RefGemm's at 1e-13; the gaps between dst's rows
// must come back untouched.
func (g gemmCase) check(t *testing.T, cfg Config, fam family, seed uint64, alloc func(n int) []float64) {
	t.Helper()
	dst, a, b := g.operands(&testRNG{s: seed}, alloc)
	want := dst
	want.Data = append([]float64(nil), dst.Data...)
	cfg.gemm(fam.isa, dst, a, b, g.transA, g.transB, g.accumulate)
	RefGemm(want, a, b, g.transA, g.transB, g.accumulate)
	for i, got := range dst.Data {
		w := want.Data[i]
		if i%dst.Stride >= dst.C {
			if math.Float64bits(got) != gapBits {
				t.Fatalf("%s %+v: wrote %x into the gap after row %d", fam.name, g, math.Float64bits(got), i/dst.Stride)
			}
		} else if d := math.Abs(got-w) / (1 + math.Abs(w)); !(d <= 1e-13) {
			t.Fatalf("%s %+v: dst(%d,%d) = %g, want %g", fam.name, g, i/dst.Stride, i%dst.Stride, got, w)
		}
	}
}

// family is one micro-kernel family this host can run.
type family struct {
	name string
	isa  int
}

// testFamilies lists every micro-kernel family the host has. Config.isa
// only ever resolves to the widest, so the tests fix the family through
// the unexported gemm/pack seam to run the others too.
func testFamilies() []family {
	fams := []family{{"generic", isaGeneric}}
	if hasAVX2 {
		fams = append(fams, family{"avx2", isaAVX2})
	}
	if hasAVX512 {
		fams = append(fams, family{"avx512", isaAVX512})
	}
	return fams
}

// opShapes returns the stored shapes of A and B for an m×k by k×n product
// under the given transposes.
func opShapes(m, k, n int, transA, transB bool) (ar, ac, br, bc int) {
	ar, ac, br, bc = m, k, k, n
	if transA {
		ar, ac = k, m
	}
	if transB {
		br, bc = n, k
	}
	return
}

// TestGemmMatchesRef drives every trans/accumulate combination and a
// shape sweep covering full tiles, ragged edges, and k=0 against the
// scalar oracle, on every micro-kernel family the host has.
func TestGemmMatchesRef(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {2, 3, 4}, {4, 4, 4}, {5, 7, 3}, {6, 8, 8},
		{8, 16, 16}, {13, 29, 17}, {31, 10, 33}, {64, 80, 96}, {64, 320, 80},
		{7, 0, 5},
	}
	for _, fam := range testFamilies() {
		for _, sh := range shapes {
			g := gemmCase{m: sh[0], k: sh[1], n: sh[2]}
			for mask := 0; mask < 8; mask++ {
				g.transA, g.transB, g.accumulate = mask&1 != 0, mask&2 != 0, mask&4 != 0
				g.check(t, Config{Workers: 1}, fam, uint64(g.m*1000000+g.k*1000+g.n+mask), heap)
			}
		}
	}
}

// TestGemmSerialParallelBitIdentical pins the determinism contract:
// destination rows are partitioned, never split, so any worker count
// produces bitwise-equal output.
func TestGemmSerialParallelBitIdentical(t *testing.T) {
	for _, fam := range testFamilies() {
		r := &testRNG{s: 7}
		m, k, n := 67, 45, 53
		a := randMat(r, m, k)
		b := randMat(r, k, n)
		serial := MatOf(m, n, make([]float64, m*n))
		Config{Workers: 1}.gemm(fam.isa, serial, a, b, false, false, false)
		for _, w := range []int{2, 3, 8} {
			par := MatOf(m, n, make([]float64, m*n))
			Config{Workers: w, ParallelThreshold: 1}.gemm(fam.isa, par, a, b, false, false, false)
			for i := range par.Data {
				if math.Float64bits(par.Data[i]) != math.Float64bits(serial.Data[i]) {
					t.Fatalf("%s workers=%d differs from serial at %d: %x vs %x",
						fam.name, w, i, par.Data[i], serial.Data[i])
				}
			}
		}
	}
}

// TestGemmStridedViews multiplies through strided source and
// destination views (one timestep of a (B,T,F) buffer) and checks that
// nothing outside the destination view — between its rows or around it
// — is touched.
func TestGemmStridedViews(t *testing.T) {
	const B, T, F, H = 5, 3, 4, 6
	g := gemmCase{m: B, k: F, n: H, lda: T * F, ldc: T * H}
	for _, fam := range testFamilies() {
		var ma margins
		g.check(t, Config{Workers: 1}, fam, 11, ma.alloc)
		ma.verify(t, fam.name)
	}
}

// TestGemmPackedReuse packs B once and reuses it across calls. Gemm
// reads the same B in place; packed or in place, each element sums the
// same products in the same order, so the two match bitwise.
func TestGemmPackedReuse(t *testing.T) {
	cfg := Config{Workers: 1}
	for _, fam := range testFamilies() {
		r := &testRNG{s: 3}
		wh := randMat(r, 24, 96)
		pb := &PackedB{}
		pb.pack(fam.isa, wh, false, 0)
		for trial := 0; trial < 3; trial++ {
			a := randMat(r, 10, 24)
			got := MatOf(10, 96, make([]float64, 10*96))
			want := MatOf(10, 96, make([]float64, 10*96))
			cfg.gemmPacked(got, a, false, pb, false)
			cfg.gemm(fam.isa, want, a, wh, false, false, false)
			for i := range got.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%s trial %d: packed reuse differs at %d", fam.name, trial, i)
				}
			}
			// Repack (weights changed) into the same buffer.
			for i := range wh.Data {
				wh.Data[i] += 0.25
			}
			pb.pack(fam.isa, wh, false, 0)
		}
	}
}

// TestGemmPackedFamilyMismatchPanics: a PackedB laid out for one family's
// panel width must not be run by a Config that resolves to another.
func TestGemmPackedFamilyMismatchPanics(t *testing.T) {
	if (Config{}).isa() == isaGeneric {
		t.Skip("host has only the generic family")
	}
	r := &testRNG{s: 4}
	a, b := randMat(r, 8, 9), randMat(r, 9, 16)
	dst := MatOf(8, 16, make([]float64, 8*16))
	pb := Config{}.PackB(nil, b, false)
	Config{Workers: 1}.GemmPacked(dst, a, false, pb, false) // same family: fine
	defer func() {
		if recover() == nil {
			t.Fatal("GemmPacked ran a SIMD-packed B under a ForceGeneric Config")
		}
	}()
	Config{Workers: 1, ForceGeneric: true}.GemmPacked(dst, a, false, pb, false)
}

// TestGemmOverwriteSignOfZero: dst = A·B is defined as zeroing dst and
// adding the sum, so a sum that underflows to −0 must land as +0 — the
// kernels' store mode may not just write the accumulator.
func TestGemmOverwriteSignOfZero(t *testing.T) {
	for _, fam := range testFamilies() {
		for _, m := range []int{16, 3} { // full tiles, and edge tiles through scratch
			a := MatOf(m, 1, make([]float64, m))
			b := MatOf(1, 16, make([]float64, 16))
			for i := range a.Data {
				a.Data[i] = -1e-200
			}
			for i := range b.Data {
				b.Data[i] = 1e-200
			}
			dst := randMat(&testRNG{s: 9}, m, 16)
			Config{Workers: 1}.gemm(fam.isa, dst, a, b, false, false, false)
			for i, v := range dst.Data {
				if math.Float64bits(v) != 0 {
					t.Fatalf("%s m=%d: dst[%d] = %x, want +0", fam.name, m, i, math.Float64bits(v))
				}
			}
		}
	}
}

// TestGemmStatsAdvance checks the cumulative counters move by the
// expected FLOP count.
func TestGemmStatsAdvance(t *testing.T) {
	r := &testRNG{s: 5}
	a, b := randMat(r, 8, 9), randMat(r, 9, 10)
	dst := MatOf(8, 10, make([]float64, 80))
	before := ReadStats()
	Config{Workers: 1}.Gemm(dst, a, b, false, false, false)
	after := ReadStats()
	if after.GemmCalls != before.GemmCalls+1 {
		t.Fatalf("calls %d -> %d", before.GemmCalls, after.GemmCalls)
	}
	if got := after.GemmFLOPs - before.GemmFLOPs; got != 2*8*9*10 {
		t.Fatalf("flops delta %d, want %d", got, 2*8*9*10)
	}
}
