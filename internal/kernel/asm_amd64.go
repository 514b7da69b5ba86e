//go:build amd64

package kernel

// gemmKernel6x8 is the AVX2+FMA micro-kernel: C (6×8, row stride ldc)
// += A·B over kc products (= when store is set), A(i,p) at
// a[i*ars+p*acs], B's row p at b[p*bps:][:8]. It touches those elements
// and no others.
//
//go:noescape
func gemmKernel6x8(c, a, b *float64, kc, ldc, ars, acs, bps int64, store bool)

// gemmKernel8x16 is the AVX-512F micro-kernel: the same contract on an
// 8×16 tile.
//
//go:noescape
func gemmKernel8x16(c, a, b *float64, kc, ldc, ars, acs, bps int64, store bool)

// lstmFwdAVX512 is the AVX-512F fused LSTM gate sweep: 8 elements per
// group, gate blocks at z + {0,1,2,3}·stride doubles. Returns how many
// elements were fully activated and stored; it stops short of n at the
// first group holding a saturated or non-finite value, which the caller
// must finish on the scalar path.
//
//go:noescape
func lstmFwdAVX512(z, cPrev, c, tanhC, h *float64, n, stride int64) int64
