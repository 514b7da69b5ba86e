package kernel

import "testing"

// FuzzGemmShapes multiplies arbitrary small shapes — m, k, n in [0, 70],
// each view with its own stride, both transposes, overwrite and
// accumulate, one worker and several — on every micro-kernel family the
// host has, against RefGemm at 1e-13, and checks that nothing outside
// dst's view was written. The seed corpus is the ten real shapes of
// benchCases, run as they are (Gram with k cut to 700, which still
// exceeds maxStridedSpan, so that RefGemm stays quick).
func FuzzGemmShapes(f *testing.F) {
	real := map[[3]uint16]bool{}
	for _, g := range benchCases {
		if g.name == "gram" {
			g.k = 700
		}
		_, ac, _, bc := opShapes(g.m, g.k, g.n, g.transA, g.transB)
		pad := func(ld, cols int) uint16 { return uint16(max(ld-cols, 0)) }
		var flags uint8
		for i, on := range []bool{g.transA, g.transB, g.accumulate} {
			if on {
				flags |= 1 << i
			}
		}
		real[[3]uint16{uint16(g.m), uint16(g.k), uint16(g.n)}] = true
		f.Add(uint16(g.m), uint16(g.k), uint16(g.n), pad(g.lda, ac), pad(g.ldb, bc), pad(g.ldc, g.n), flags, uint64(1))
	}
	f.Fuzz(func(t *testing.T, m, k, n, padA, padB, padC uint16, flags uint8, seed uint64) {
		if !real[[3]uint16{m, k, n}] {
			m, k, n = m%71, k%71, n%71
			padA, padB, padC = padA%9, padB%9, padC%9
		}
		g := gemmCase{m: int(m), k: int(k), n: int(n), transA: flags&1 != 0, transB: flags&2 != 0, accumulate: flags&4 != 0}
		_, ac, _, bc := opShapes(g.m, g.k, g.n, g.transA, g.transB)
		g.lda, g.ldb, g.ldc = ac+int(padA), bc+int(padB), g.n+int(padC)
		cfg := Config{Workers: 1}
		if flags&8 != 0 {
			cfg = Config{Workers: 3, ParallelThreshold: 1}
		}
		for _, fam := range testFamilies() {
			var ma margins
			g.check(t, cfg, fam, seed, ma.alloc)
			ma.verify(t, fam.name)
		}
	})
}

// FuzzElemwise runs one elementwise op at an arbitrary size — rows and
// width in [0, 8] × [0, 70], or one of the real sizes of elemBenchCases,
// which seed the corpus — with every operand starting off floats into
// its allocation (so at every alignment a 64-byte vector can have), on
// the families fams selects, against the scalar transcription bit for
// bit, and checks that nothing outside the operands was written.
func FuzzElemwise(f *testing.F) {
	real := map[[3]uint16]bool{}
	for _, c := range elemBenchCases {
		op := elemOpIndex(c.op)
		real[[3]uint16{uint16(op), uint16(c.rows), uint16(c.width)}] = true
		f.Add(uint8(op), uint16(c.rows), uint16(c.width), uint8(0), uint8(0xff), uint64(1))
	}
	f.Fuzz(func(t *testing.T, opIdx uint8, rows, width uint16, off, fams uint8, seed uint64) {
		opIdx %= uint8(len(elemOps))
		if !real[[3]uint16{uint16(opIdx), rows, width}] {
			rows, width = rows%9, width%71
		}
		op := elemOps[opIdx]
		for i, fam := range testFamilies() {
			if fams&(1<<i) == 0 {
				continue
			}
			var ma margins
			salt := int(seed%uint64(len(op.lens(1, 1))+1)) - 1
			op.check(t, fam, int(rows), int(width), seed, salt, func(n int) []float64 {
				b := ma.alloc(n + int(off%8))
				return b[off%8:]
			})
			ma.verify(t, op.name+"/"+fam.name)
		}
	})
}
