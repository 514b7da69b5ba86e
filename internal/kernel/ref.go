package kernel

import "fmt"

// RefGemm is the pre-kernel-layer scalar GEMM, preserved verbatim in
// accumulation order: the ikj loop with the bitwise-zero sparsity skip
// for the plain and transA cases, and the dot-product form for transB.
// It is the oracle the tiled kernels are tested against and the compute
// path of nn's test-only reference layers; no shipped code calls it.
func RefGemm(dst, a, b Mat, transA, transB, accumulate bool) {
	if !dst.ok() || !a.ok() || !b.ok() {
		panic("kernel: RefGemm bad view")
	}
	m, k := a.R, a.C
	if transA {
		m, k = a.C, a.R
	}
	kb, n := b.R, b.C
	if transB {
		kb, n = b.C, b.R
	}
	if k != kb || dst.R != m || dst.C != n {
		panic(fmt.Sprintf("kernel: RefGemm shape mismatch op(A) %dx%d, op(B) %dx%d, dst %dx%d", m, k, kb, n, dst.R, dst.C))
	}
	gemmCalls.Add(1)
	gemmFLOPs.Add(2 * uint64(m) * uint64(n) * uint64(k))
	if m == 0 || n == 0 {
		return // an empty view need not be backed
	}
	if !accumulate {
		for i := 0; i < m; i++ {
			row := dst.Data[i*dst.Stride : i*dst.Stride+n]
			for j := range row {
				row[j] = 0
			}
		}
	}
	if k == 0 {
		return // nothing to sum, and an empty view need not be backed
	}
	switch {
	case !transA && !transB:
		for i := 0; i < m; i++ {
			arow := a.Data[i*a.Stride : i*a.Stride+k]
			drow := dst.Data[i*dst.Stride : i*dst.Stride+n]
			for p := 0; p < k; p++ {
				av := arow[p]
				//podnas:allow floateq exact sparsity skip: only bitwise zero contributes nothing
				if av == 0 {
					continue
				}
				brow := b.Data[p*b.Stride : p*b.Stride+n]
				for j, bv := range brow {
					drow[j] += av * bv
				}
			}
		}
	case transA && !transB:
		for i := 0; i < m; i++ {
			drow := dst.Data[i*dst.Stride : i*dst.Stride+n]
			for p := 0; p < k; p++ {
				av := a.Data[p*a.Stride+i]
				//podnas:allow floateq exact sparsity skip: only bitwise zero contributes nothing
				if av == 0 {
					continue
				}
				brow := b.Data[p*b.Stride : p*b.Stride+n]
				for j, bv := range brow {
					drow[j] += av * bv
				}
			}
		}
	case !transA && transB:
		for i := 0; i < m; i++ {
			arow := a.Data[i*a.Stride : i*a.Stride+k]
			drow := dst.Data[i*dst.Stride : i*dst.Stride+n]
			for j := 0; j < n; j++ {
				brow := b.Data[j*b.Stride : j*b.Stride+k]
				var s float64
				for p, av := range arow {
					s += av * brow[p]
				}
				drow[j] += s
			}
		}
	default: // transA && transB
		for i := 0; i < m; i++ {
			drow := dst.Data[i*dst.Stride : i*dst.Stride+n]
			for j := 0; j < n; j++ {
				brow := b.Data[j*b.Stride:]
				var s float64
				for p := 0; p < k; p++ {
					s += a.Data[p*a.Stride+i] * brow[p]
				}
				drow[j] += s
			}
		}
	}
}
