//go:build amd64

package kernel

// cpuid executes CPUID for the given leaf/subleaf.
//
//go:noescape
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (requires OSXSAVE).
//
//go:noescape
func xgetbv() (eax, edx uint32)

// hasAVX2 and hasAVX512 gate the SIMD micro-kernels; both require the
// OS to have enabled the corresponding register state via XCR0.
var hasAVX2, hasAVX512 = detectCPU()

func detectCPU() (avx2, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		bitFMA     = 1 << 12
		bitOSXSAVE = 1 << 27
		bitAVX     = 1 << 28
	)
	if c1&bitOSXSAVE == 0 || c1&bitAVX == 0 || c1&bitFMA == 0 {
		return
	}
	xcr0, _ := xgetbv()
	const xmmYmm = 0x6 // SSE + AVX state enabled by the OS
	if xcr0&xmmYmm != xmmYmm {
		return
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const (
		bitAVX2    = 1 << 5
		bitAVX512F = 1 << 16
	)
	const opmaskZmm = 0xe0 // opmask + zmm_hi256 + hi16_zmm state
	return ebx7&bitAVX2 != 0, ebx7&bitAVX512F != 0 && xcr0&opmaskZmm == opmaskZmm
}
