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

// The elementwise family's vector bodies (elem.go): each takes a count
// that is a whole number of its vectors (8 floats on AVX-512, 4 on AVX2)
// and touches exactly that many elements of every operand.

//go:noescape
func adamAVX512(w, grad, m, v *float64, k *AdamCoeffs, n int64)

//go:noescape
func adamAVX2(w, grad, m, v *float64, k *AdamCoeffs, n int64)

// The gate and dz blocks lie stride floats apart.
//
//go:noescape
func lstmBwdAVX512(gates, tanhC, cPrev, dout, dhn, dc, dz *float64, n, stride int64)

//go:noescape
func lstmBwdAVX2(gates, tanhC, cPrev, dout, dhn, dc, dz *float64, n, stride int64)

//go:noescape
func reluAVX512(dst, src *float64, n int64)

//go:noescape
func reluAVX2(dst, src *float64, n int64)

//go:noescape
func reluGradAVX512(dst, out, dOut *float64, n int64)

//go:noescape
func reluGradAVX2(dst, out, dOut *float64, n int64)

// For each of rows rows, dst[j] += src[j] over width columns, then dst
// and src advance by their strides in floats.
//
//go:noescape
func addRowsAVX512(dst, src *float64, rows, width, dstStride, srcStride int64)

//go:noescape
func addRowsAVX2(dst, src *float64, rows, width, dstStride, srcStride int64)
