//go:build !amd64

package kernel

// On non-amd64 targets the SIMD feature flags are always false, so these
// are never reached; they exist to keep the dispatch switch compiling.

func gemmKernel6x8(c, a, b *float64, kc, ldc, ars, acs, bps int64, store bool) {
	panic("kernel: no AVX2 on this arch")
}

func gemmKernel8x16(c, a, b *float64, kc, ldc, ars, acs, bps int64, store bool) {
	panic("kernel: no AVX-512 on this arch")
}

func lstmFwdAVX512(z, cPrev, c, tanhC, h *float64, n, stride int64) int64 {
	panic("kernel: no AVX-512 on this arch")
}

func adamAVX512(w, grad, m, v *float64, k *AdamCoeffs, n int64) {
	panic("kernel: no AVX-512 on this arch")
}

func adamAVX2(w, grad, m, v *float64, k *AdamCoeffs, n int64) {
	panic("kernel: no AVX2 on this arch")
}

func lstmBwdAVX512(gates, tanhC, cPrev, dout, dhn, dc, dz *float64, n, stride int64) {
	panic("kernel: no AVX-512 on this arch")
}

func lstmBwdAVX2(gates, tanhC, cPrev, dout, dhn, dc, dz *float64, n, stride int64) {
	panic("kernel: no AVX2 on this arch")
}

func reluAVX512(dst, src *float64, n int64) { panic("kernel: no AVX-512 on this arch") }

func reluAVX2(dst, src *float64, n int64) { panic("kernel: no AVX2 on this arch") }

func reluGradAVX512(dst, out, dOut *float64, n int64) { panic("kernel: no AVX-512 on this arch") }

func reluGradAVX2(dst, out, dOut *float64, n int64) { panic("kernel: no AVX2 on this arch") }

func addRowsAVX512(dst, src *float64, rows, width, dstStride, srcStride int64) {
	panic("kernel: no AVX-512 on this arch")
}

func addRowsAVX2(dst, src *float64, rows, width, dstStride, srcStride int64) {
	panic("kernel: no AVX2 on this arch")
}
