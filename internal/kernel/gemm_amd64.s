//go:build amd64

#include "textflag.h"

// Both micro-kernels share one stride-aware contract:
//
//	func gemmKernelMRxNR(c, a, b *float64, kc, ldc, ars, acs, bps int64, store bool)
//
// C (mr×nr, row stride ldc) gets the sum over p < kc of A(i,p)·B(p,j), with
// A(i,p) at a[i*ars + p*acs] and B's row p (nr contiguous doubles) at
// b[p*bps]; all strides are in doubles. With store false the sum is added to
// C; otherwise C is overwritten with sum + 0, which is what zeroing C and
// adding would leave (the + 0 turns an underflowed −0 sum into +0). Exactly
// the mr·kc elements of A, nr·kc of B and mr·nr of C named above are
// loaded or stored, so the operands may be read where the caller keeps
// them. The loop also prefetches A and B eight steps of p ahead: rows a large
// stride apart defeat the hardware prefetchers, and a prefetch, unlike a
// load, may name memory past the operand (it never faults).

// Register use, both kernels: DI c, SI a, DX b, CX kc, R8 ldc, AX acs,
// BX bps, R10 ars, R11 3·ars, R12 5·ars, R13 7·ars (all strides in bytes).
#define LOAD_ARGS \
	MOVQ c+0(FP), DI \
	MOVQ a+8(FP), SI \
	MOVQ b+16(FP), DX \
	MOVQ kc+24(FP), CX \
	MOVQ ldc+32(FP), R8 \
	MOVQ ars+40(FP), R10 \
	MOVQ acs+48(FP), AX \
	MOVQ bps+56(FP), BX \
	SHLQ $3, R8 \
	SHLQ $3, R10 \
	SHLQ $3, AX \
	SHLQ $3, BX \
	LEAQ (R10)(R10*2), R11 \
	LEAQ (R10)(R10*4), R12 \
	LEAQ (R11)(R10*4), R13

// PREFETCH_AHEAD touches the first and last byte of B's row, and A's
// column, eight steps of p ahead.
#define PREFETCH_AHEAD(lastByte) \
	PREFETCHT0 (DX)(BX*8) \
	PREFETCHT0 lastByte(DX)(BX*8) \
	PREFETCHT0 (SI)(AX*8)

// One row of C from two accumulators: += the row, or = acc + zero.
#define ACC_ROW(lo, hi, off, t0, t1) \
	VMOVUPD (DI), t0 \
	VMOVUPD off(DI), t1 \
	VADDPD  t0, lo, lo \
	VADDPD  t1, hi, hi \
	VMOVUPD lo, (DI) \
	VMOVUPD hi, off(DI) \
	ADDQ    R8, DI

#define STORE_ROW(lo, hi, off, zero) \
	VADDPD  zero, lo, lo \
	VADDPD  zero, hi, hi \
	VMOVUPD lo, (DI) \
	VMOVUPD hi, off(DI) \
	ADDQ    R8, DI

// func gemmKernel6x8(c, a, b *float64, kc, ldc, ars, acs, bps int64, store bool)
TEXT ·gemmKernel6x8(SB), NOSPLIT, $0-65
	LOAD_ARGS

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

	TESTQ CX, CX
	JZ    done

loop:
	VMOVUPD (DX), Y12
	VMOVUPD 32(DX), Y13
	PREFETCH_AHEAD(56)

	VBROADCASTSD (SI), Y14
	VBROADCASTSD (SI)(R10*1), Y15
	VFMADD231PD Y12, Y14, Y0
	VFMADD231PD Y13, Y14, Y1
	VFMADD231PD Y12, Y15, Y2
	VFMADD231PD Y13, Y15, Y3

	VBROADCASTSD (SI)(R10*2), Y14
	VBROADCASTSD (SI)(R11*1), Y15
	VFMADD231PD Y12, Y14, Y4
	VFMADD231PD Y13, Y14, Y5
	VFMADD231PD Y12, Y15, Y6
	VFMADD231PD Y13, Y15, Y7

	VBROADCASTSD (SI)(R10*4), Y14
	VBROADCASTSD (SI)(R12*1), Y15
	VFMADD231PD Y12, Y14, Y8
	VFMADD231PD Y13, Y14, Y9
	VFMADD231PD Y12, Y15, Y10
	VFMADD231PD Y13, Y15, Y11

	ADDQ AX, SI
	ADDQ BX, DX
	DECQ CX
	JNZ  loop

done:
	MOVBLZX store+64(FP), CX
	TESTL   CX, CX
	JNZ     store
	ACC_ROW(Y0, Y1, 32, Y12, Y13)
	ACC_ROW(Y2, Y3, 32, Y12, Y13)
	ACC_ROW(Y4, Y5, 32, Y12, Y13)
	ACC_ROW(Y6, Y7, 32, Y12, Y13)
	ACC_ROW(Y8, Y9, 32, Y12, Y13)
	ACC_ROW(Y10, Y11, 32, Y12, Y13)
	VZEROUPPER
	RET

store:
	VXORPD Y12, Y12, Y12
	STORE_ROW(Y0, Y1, 32, Y12)
	STORE_ROW(Y2, Y3, 32, Y12)
	STORE_ROW(Y4, Y5, 32, Y12)
	STORE_ROW(Y6, Y7, 32, Y12)
	STORE_ROW(Y8, Y9, 32, Y12)
	STORE_ROW(Y10, Y11, 32, Y12)
	VZEROUPPER
	RET

// func gemmKernel8x16(c, a, b *float64, kc, ldc, ars, acs, bps int64, store bool)
TEXT ·gemmKernel8x16(SB), NOSPLIT, $0-65
	LOAD_ARGS

	VXORPD Z0, Z0, Z0
	VXORPD Z1, Z1, Z1
	VXORPD Z2, Z2, Z2
	VXORPD Z3, Z3, Z3
	VXORPD Z4, Z4, Z4
	VXORPD Z5, Z5, Z5
	VXORPD Z6, Z6, Z6
	VXORPD Z7, Z7, Z7
	VXORPD Z8, Z8, Z8
	VXORPD Z9, Z9, Z9
	VXORPD Z10, Z10, Z10
	VXORPD Z11, Z11, Z11
	VXORPD Z12, Z12, Z12
	VXORPD Z13, Z13, Z13
	VXORPD Z14, Z14, Z14
	VXORPD Z15, Z15, Z15

	TESTQ CX, CX
	JZ    done

loop:
	VMOVUPD (DX), Z16
	VMOVUPD 64(DX), Z17
	PREFETCH_AHEAD(120)

	VBROADCASTSD (SI), Z18
	VBROADCASTSD (SI)(R10*1), Z19
	VFMADD231PD Z16, Z18, Z0
	VFMADD231PD Z17, Z18, Z1
	VFMADD231PD Z16, Z19, Z2
	VFMADD231PD Z17, Z19, Z3

	VBROADCASTSD (SI)(R10*2), Z20
	VBROADCASTSD (SI)(R11*1), Z21
	VFMADD231PD Z16, Z20, Z4
	VFMADD231PD Z17, Z20, Z5
	VFMADD231PD Z16, Z21, Z6
	VFMADD231PD Z17, Z21, Z7

	VBROADCASTSD (SI)(R10*4), Z18
	VBROADCASTSD (SI)(R12*1), Z19
	VFMADD231PD Z16, Z18, Z8
	VFMADD231PD Z17, Z18, Z9
	VFMADD231PD Z16, Z19, Z10
	VFMADD231PD Z17, Z19, Z11

	VBROADCASTSD (SI)(R11*2), Z20
	VBROADCASTSD (SI)(R13*1), Z21
	VFMADD231PD Z16, Z20, Z12
	VFMADD231PD Z17, Z20, Z13
	VFMADD231PD Z16, Z21, Z14
	VFMADD231PD Z17, Z21, Z15

	ADDQ AX, SI
	ADDQ BX, DX
	DECQ CX
	JNZ  loop

done:
	MOVBLZX store+64(FP), CX
	TESTL   CX, CX
	JNZ     store
	ACC_ROW(Z0, Z1, 64, Z16, Z17)
	ACC_ROW(Z2, Z3, 64, Z16, Z17)
	ACC_ROW(Z4, Z5, 64, Z16, Z17)
	ACC_ROW(Z6, Z7, 64, Z16, Z17)
	ACC_ROW(Z8, Z9, 64, Z16, Z17)
	ACC_ROW(Z10, Z11, 64, Z16, Z17)
	ACC_ROW(Z12, Z13, 64, Z16, Z17)
	ACC_ROW(Z14, Z15, 64, Z16, Z17)
	VZEROUPPER
	RET

store:
	VXORPD Z16, Z16, Z16
	STORE_ROW(Z0, Z1, 64, Z16)
	STORE_ROW(Z2, Z3, 64, Z16)
	STORE_ROW(Z4, Z5, 64, Z16)
	STORE_ROW(Z6, Z7, 64, Z16)
	STORE_ROW(Z8, Z9, 64, Z16)
	STORE_ROW(Z10, Z11, 64, Z16)
	STORE_ROW(Z12, Z13, 64, Z16)
	STORE_ROW(Z14, Z15, 64, Z16)
	VZEROUPPER
	RET
