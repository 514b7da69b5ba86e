//go:build amd64

#include "textflag.h"

// The elementwise family's vector bodies (see elem.go). Every routine
// takes a count that is a whole number of vectors — the Go side finishes
// the tail — and performs, lane for lane, the IEEE operations of the
// scalar loop in the scalar loop's order: VADDPD/VSUBPD/VMULPD/VDIVPD/
// VSQRTPD only, never an FMA or a reciprocal estimate. Where the scalar
// code computes x op y, x is the first source here too (Go's middle
// operand), which is what x86 keeps when two NaNs meet.

DATA elemOne<>+0x00(SB)/8, $0x3FF0000000000000
GLOBL elemOne<>(SB), RODATA|NOPTR, $8

// AdamCoeffs field offsets.
#define K_B1   0x00
#define K_OMB1 0x08
#define K_B2   0x10
#define K_OMB2 0x18
#define K_C1   0x20
#define K_C2   0x28
#define K_LR   0x30
#define K_EPS  0x38

// ADAM is one vector of the update, on registers of either width:
// V0…V7 hold the broadcast coefficients in AdamCoeffs order, V15
// zeros.
#define ADAM(V0, V1, V2, V3, V4, V5, V6, V7, V8, V9, V10, V11, V12, V15) \
	VMOVUPD (R8), V8 \
	VMOVUPD (R9), V9 \
	VMOVUPD (SI), V10 \
	VMULPD  V8, V0, V8 \
	VMULPD  V10, V1, V11 \
	VADDPD  V11, V8, V8 \
	VMULPD  V9, V2, V9 \
	VMULPD  V10, V3, V11 \
	VMULPD  V10, V11, V11 \
	VADDPD  V11, V9, V9 \
	VMOVUPD V8, (R8) \
	VMOVUPD V9, (R9) \
	VDIVPD  V4, V8, V8 \
	VDIVPD  V5, V9, V9 \
	VMULPD  V8, V6, V8 \
	VSQRTPD V9, V9 \
	VADDPD  V7, V9, V9 \
	VDIVPD  V9, V8, V8 \
	VMOVUPD (DI), V12 \
	VSUBPD  V8, V12, V12 \
	VMOVUPD V12, (DI) \
	VMOVUPD V15, (SI)

// LSTMBWD is one vector of the BPTT gate sweep: the gate blocks at
// DI + {0,1,2,3}·R12 bytes (R13 = 3·R12), the dz blocks likewise from
// R11; V15 holds ones.
#define LSTMBWD(V0, V1, V2, V3, V4, V5, V6, V7, V8, V9, V10, V11, V12, V15) \
	VMOVUPD (DI), V0 \
	VMOVUPD (DI)(R12*1), V1 \
	VMOVUPD (DI)(R12*2), V2 \
	VMOVUPD (DI)(R13*1), V3 \
	VMOVUPD (SI), V4 \
	VMOVUPD (R8), V5 \
	VADDPD  (R9), V5, V5 \
	VMULPD  V4, V5, V6 \
	VMULPD  V3, V5, V7 \
	VMULPD  V4, V4, V8 \
	VSUBPD  V8, V15, V8 \
	VMULPD  V8, V7, V7 \
	VADDPD  (R10), V7, V7 \
	VMULPD  V2, V7, V9 \
	VMULPD  V0, V7, V10 \
	VMULPD  (DX), V7, V11 \
	VMULPD  V0, V9, V9 \
	VSUBPD  V0, V15, V12 \
	VMULPD  V12, V9, V9 \
	VMOVUPD V9, (R11) \
	VMULPD  V1, V11, V11 \
	VSUBPD  V1, V15, V12 \
	VMULPD  V12, V11, V11 \
	VMOVUPD V11, (R11)(R12*1) \
	VMULPD  V2, V2, V12 \
	VSUBPD  V12, V15, V12 \
	VMULPD  V12, V10, V10 \
	VMOVUPD V10, (R11)(R12*2) \
	VMULPD  V3, V6, V6 \
	VSUBPD  V3, V15, V12 \
	VMULPD  V12, V6, V6 \
	VMOVUPD V6, (R11)(R13*1) \
	VMULPD  V1, V7, V7 \
	VMOVUPD V7, (R10)

#define LSTMBWD_ARGS \
	MOVQ gates+0(FP), DI \
	MOVQ tanhC+8(FP), SI \
	MOVQ cPrev+16(FP), DX \
	MOVQ dout+24(FP), R8 \
	MOVQ dhn+32(FP), R9 \
	MOVQ dc+40(FP), R10 \
	MOVQ dz+48(FP), R11 \
	MOVQ n+56(FP), CX \
	MOVQ stride+64(FP), R12 \
	SHLQ $3, R12 \
	LEAQ (R12)(R12*2), R13

#define LSTMBWD_NEXT(bytes) \
	ADDQ $bytes, DI \
	ADDQ $bytes, SI \
	ADDQ $bytes, DX \
	ADDQ $bytes, R8 \
	ADDQ $bytes, R9 \
	ADDQ $bytes, R10 \
	ADDQ $bytes, R11

// func adamAVX512(w, grad, m, v *float64, k *AdamCoeffs, n int64)
TEXT ·adamAVX512(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ k+32(FP), AX
	MOVQ n+40(FP), CX
	VBROADCASTSD K_B1(AX), Z0
	VBROADCASTSD K_OMB1(AX), Z1
	VBROADCASTSD K_B2(AX), Z2
	VBROADCASTSD K_OMB2(AX), Z3
	VBROADCASTSD K_C1(AX), Z4
	VBROADCASTSD K_C2(AX), Z5
	VBROADCASTSD K_LR(AX), Z6
	VBROADCASTSD K_EPS(AX), Z7
	VPXORQ Z15, Z15, Z15

adam512loop:
	CMPQ CX, $8
	JL   adam512done
	ADAM(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z15)
	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $64, R8
	ADDQ $64, R9
	SUBQ $8, CX
	JMP  adam512loop

adam512done:
	VZEROUPPER
	RET

// func adamAVX2(w, grad, m, v *float64, k *AdamCoeffs, n int64)
TEXT ·adamAVX2(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ k+32(FP), AX
	MOVQ n+40(FP), CX
	VBROADCASTSD K_B1(AX), Y0
	VBROADCASTSD K_OMB1(AX), Y1
	VBROADCASTSD K_B2(AX), Y2
	VBROADCASTSD K_OMB2(AX), Y3
	VBROADCASTSD K_C1(AX), Y4
	VBROADCASTSD K_C2(AX), Y5
	VBROADCASTSD K_LR(AX), Y6
	VBROADCASTSD K_EPS(AX), Y7
	VXORPD Y15, Y15, Y15

adam256loop:
	CMPQ CX, $4
	JL   adam256done
	ADAM(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y15)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	SUBQ $4, CX
	JMP  adam256loop

adam256done:
	VZEROUPPER
	RET

// func lstmBwdAVX512(gates, tanhC, cPrev, dout, dhn, dc, dz *float64, n, stride int64)
TEXT ·lstmBwdAVX512(SB), NOSPLIT, $0-72
	LSTMBWD_ARGS
	VBROADCASTSD elemOne<>(SB), Z15

lstmbwd512loop:
	CMPQ CX, $8
	JL   lstmbwd512done
	LSTMBWD(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z15)
	LSTMBWD_NEXT(64)
	SUBQ $8, CX
	JMP  lstmbwd512loop

lstmbwd512done:
	VZEROUPPER
	RET

// func lstmBwdAVX2(gates, tanhC, cPrev, dout, dhn, dc, dz *float64, n, stride int64)
TEXT ·lstmBwdAVX2(SB), NOSPLIT, $0-72
	LSTMBWD_ARGS
	VBROADCASTSD elemOne<>(SB), Y15

lstmbwd256loop:
	CMPQ CX, $4
	JL   lstmbwd256done
	LSTMBWD(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y15)
	LSTMBWD_NEXT(32)
	SUBQ $4, CX
	JMP  lstmbwd256loop

lstmbwd256done:
	VZEROUPPER
	RET

// The rectifier is VMAXPD with the value as first source and zero as
// second: MAXPD returns its second source when either is NaN and when
// both are zeros, which is exactly `if v > 0 { v } else { 0 }`.

// func reluAVX512(dst, src *float64, n int64)
TEXT ·reluAVX512(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VPXORQ Z15, Z15, Z15

relu512loop:
	CMPQ CX, $8
	JL   relu512done
	VMOVUPD (SI), Z0
	VMAXPD  Z15, Z0, Z0
	VMOVUPD Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  relu512loop

relu512done:
	VZEROUPPER
	RET

// func reluAVX2(dst, src *float64, n int64)
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VXORPD Y15, Y15, Y15

relu256loop:
	CMPQ CX, $4
	JL   relu256done
	VMOVUPD (SI), Y0
	VMAXPD  Y15, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  relu256loop

relu256done:
	VZEROUPPER
	RET

// func reluGradAVX512(dst, out, dOut *float64, n int64)
//
// dst = dOut under the mask out > 0 (ordered: a NaN output masks), +0
// elsewhere. The load is zero-masked, so dOut's bits pass untouched.
TEXT ·reluGradAVX512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ out+8(FP), SI
	MOVQ dOut+16(FP), DX
	MOVQ n+24(FP), CX
	VPXORQ Z15, Z15, Z15

relugrad512loop:
	CMPQ CX, $8
	JL   relugrad512done
	VMOVUPD   (SI), Z0
	VCMPPD    $0x1E, Z15, Z0, K1 // out > 0, ordered
	VMOVUPD.Z (DX), K1, Z1
	VMOVUPD   Z1, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  relugrad512loop

relugrad512done:
	VZEROUPPER
	RET

// func reluGradAVX2(dst, out, dOut *float64, n int64)
TEXT ·reluGradAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ out+8(FP), SI
	MOVQ dOut+16(FP), DX
	MOVQ n+24(FP), CX
	VXORPD Y15, Y15, Y15

relugrad256loop:
	CMPQ CX, $4
	JL   relugrad256done
	VMOVUPD (SI), Y0
	VCMPPD  $0x1E, Y15, Y0, Y0 // all-ones lanes where out > 0
	VANDPD  (DX), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  relugrad256loop

relugrad256done:
	VZEROUPPER
	RET

// func addRowsAVX512(dst, src *float64, rows, width, dstStride, srcStride int64)
//
// For each of rows rows: dst[j] += src[j] over width columns (a multiple
// of 8), then dst and src advance by their strides (in floats; 0 holds
// an operand in place, which is how one loop serves the elementwise add,
// the bias broadcast and the column sum).
TEXT ·addRowsAVX512(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), BX
	MOVQ width+24(FP), R10
	MOVQ dstStride+32(FP), R8
	MOVQ srcStride+40(FP), R9
	SHLQ $3, R8
	SHLQ $3, R9

addrows512row:
	TESTQ BX, BX
	JLE   addrows512done
	MOVQ  DI, AX
	MOVQ  SI, DX
	MOVQ  R10, CX

addrows512x4:
	CMPQ CX, $32
	JL   addrows512x1
	VMOVUPD (AX), Z0
	VMOVUPD 64(AX), Z1
	VMOVUPD 128(AX), Z2
	VMOVUPD 192(AX), Z3
	VADDPD  (DX), Z0, Z0
	VADDPD  64(DX), Z1, Z1
	VADDPD  128(DX), Z2, Z2
	VADDPD  192(DX), Z3, Z3
	VMOVUPD Z0, (AX)
	VMOVUPD Z1, 64(AX)
	VMOVUPD Z2, 128(AX)
	VMOVUPD Z3, 192(AX)
	ADDQ $256, AX
	ADDQ $256, DX
	SUBQ $32, CX
	JMP  addrows512x4

addrows512x1:
	CMPQ CX, $8
	JL   addrows512next
	VMOVUPD (AX), Z0
	VADDPD  (DX), Z0, Z0
	VMOVUPD Z0, (AX)
	ADDQ $64, AX
	ADDQ $64, DX
	SUBQ $8, CX
	JMP  addrows512x1

addrows512next:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ BX
	JMP  addrows512row

addrows512done:
	VZEROUPPER
	RET

// func addRowsAVX2(dst, src *float64, rows, width, dstStride, srcStride int64)
//
// The same on 4-lane vectors; width is a multiple of 4.
TEXT ·addRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), BX
	MOVQ width+24(FP), R10
	MOVQ dstStride+32(FP), R8
	MOVQ srcStride+40(FP), R9
	SHLQ $3, R8
	SHLQ $3, R9

addrows256row:
	TESTQ BX, BX
	JLE   addrows256done
	MOVQ  DI, AX
	MOVQ  SI, DX
	MOVQ  R10, CX

addrows256x4:
	CMPQ CX, $16
	JL   addrows256x1
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	VADDPD  (DX), Y0, Y0
	VADDPD  32(DX), Y1, Y1
	VADDPD  64(DX), Y2, Y2
	VADDPD  96(DX), Y3, Y3
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	ADDQ $128, AX
	ADDQ $128, DX
	SUBQ $16, CX
	JMP  addrows256x4

addrows256x1:
	CMPQ CX, $4
	JL   addrows256next
	VMOVUPD (AX), Y0
	VADDPD  (DX), Y0, Y0
	VMOVUPD Y0, (AX)
	ADDQ $32, AX
	ADDQ $32, DX
	SUBQ $4, CX
	JMP  addrows256x1

addrows256next:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ BX
	JMP  addrows256row

addrows256done:
	VZEROUPPER
	RET
