//go:build linux

package kernel

import (
	"fmt"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n floats whose last byte is the last byte before a
// PROT_NONE page: reading or writing one float past the slice faults.
func guarded(t *testing.T, n int) []float64 {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n*8 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // a leaked test mapping dies with the process
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[size-n*8])), n)
}

// TestGemmGuardPages puts A, B and dst flush against an unmapped page and
// multiplies: the asm kernels dereference caller memory at strides worked
// out in Go, so a read or write past a view must fault here, not lurk.
// Shapes cover full and ragged tiles of every family (mr ∈ {4,6,8},
// nr ∈ {4,8,16}) and the LSTM's timestep views, whose last row ends where
// the (B,T,F) buffer does.
func TestGemmGuardPages(t *testing.T) {
	const T, H = 3, 12 // timestep views: stride T·H and T·4H
	cases := []gemmCase{
		{name: "full", m: 24, k: 7, n: 16},
		{name: "ragged m", m: 13, k: 7, n: 16},
		{name: "ragged n", m: 24, k: 7, n: 19},
		{name: "m=1", m: 1, k: 7, n: 16},
		{name: "n=5", m: 24, k: 7, n: 5},
		{name: "k=0", m: 24, k: 0, n: 16},
		{name: "h.Wh step", m: 16, k: H, n: 4 * H, lda: T * H, ldc: T * 4 * H},
		{name: "dz.WhT step", m: 16, k: 4 * H, n: H, lda: T * 4 * H},
		{name: "hT.dz step", m: H, k: 16, n: 4 * H, lda: T * H, ldb: T * 4 * H},
	}
	for _, fam := range testFamilies() {
		for _, g := range cases {
			for mask := 0; mask < 8; mask++ {
				g.transA, g.transB, g.accumulate = mask&1 != 0, mask&2 != 0, mask&4 != 0
				t.Run(fmt.Sprintf("%s/%s/%d", fam.name, g.name, mask), func(t *testing.T) {
					g.check(t, Config{Workers: 1}, fam, uint64(mask), func(n int) []float64 { return guarded(t, n) })
				})
			}
		}
	}
}

// TestElemGuardPages puts every operand of every elementwise op flush
// against an unmapped page, on every family: a vector body that loads or
// stores a whole vector where a tail remains faults here.
func TestElemGuardPages(t *testing.T) {
	for _, fam := range testFamilies() {
		for _, op := range elemOps {
			t.Run(op.name+"/"+fam.name, func(t *testing.T) {
				for _, n := range []int{0, 1, 3, 5, 8, 12, 20, 33, 64, 70} {
					for _, rows := range []int{1, 3} {
						op.check(t, fam, rows, n, uint64(n), saltInf, func(n int) []float64 { return guarded(t, n) })
					}
				}
			})
		}
	}
}
