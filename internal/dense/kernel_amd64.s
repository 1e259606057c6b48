// AVX2+FMA micro-kernel for GEMM. The hot loop computes an 8×4 block of C
// from an 8-row strip of A and a 4-column strip of B, both addressed by
// explicit strides, so one kernel serves packed panels and operands read
// in place: 8 FMAs per k step over 8 independent ymm accumulators, 32
// flops per iteration.

#include "textflag.h"

// func dgemmStrided8x4(kc int64, alpha float64, a *float64, astep int64, b *float64, bcol, bstep int64, c *float64, ldc int64)
//
// c[i + j*ldc] += alpha * Σ_p a[p*astep+i] * b[j*bcol+p*bstep]   for i<8, j<4.
// Strides are in elements; the 8 A values of one k step are contiguous.
// kc may be zero.
TEXT ·dgemmStrided8x4(SB), NOSPLIT, $0-72
	MOVQ kc+0(FP), CX
	MOVQ a+16(FP), SI
	MOVQ astep+24(FP), R9
	MOVQ b+32(FP), DI
	MOVQ bcol+40(FP), R10
	MOVQ bstep+48(FP), R12
	MOVQ c+56(FP), DX
	MOVQ ldc+64(FP), R8
	SHLQ $3, R8  // ldc in bytes
	SHLQ $3, R9  // astep in bytes
	SHLQ $3, R10 // bcol in bytes
	SHLQ $3, R12 // bstep in bytes
	LEAQ (R10)(R10*2), R11 // 3*bcol in bytes

	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

	TESTQ CX, CX
	JZ    store

loop:
	VMOVUPD (SI), Y0   // a[0:4]
	VMOVUPD 32(SI), Y1 // a[4:8]

	VBROADCASTSD (DI), Y2        // b column 0
	VBROADCASTSD (DI)(R10*1), Y3 // b column 1
	VFMADD231PD  Y0, Y2, Y4
	VFMADD231PD  Y1, Y2, Y5
	VFMADD231PD  Y0, Y3, Y6
	VFMADD231PD  Y1, Y3, Y7

	VBROADCASTSD (DI)(R10*2), Y2 // b column 2
	VBROADCASTSD (DI)(R11*1), Y3 // b column 3
	VFMADD231PD  Y0, Y2, Y8
	VFMADD231PD  Y1, Y2, Y9
	VFMADD231PD  Y0, Y3, Y10
	VFMADD231PD  Y1, Y3, Y11

	ADDQ R9, SI
	ADDQ R12, DI
	DECQ CX
	JNZ  loop

store:
	VBROADCASTSD alpha+8(FP), Y0

	// column 0
	VMOVUPD     (DX), Y1
	VMOVUPD     32(DX), Y2
	VFMADD231PD Y4, Y0, Y1
	VFMADD231PD Y5, Y0, Y2
	VMOVUPD     Y1, (DX)
	VMOVUPD     Y2, 32(DX)
	ADDQ        R8, DX

	// column 1
	VMOVUPD     (DX), Y1
	VMOVUPD     32(DX), Y2
	VFMADD231PD Y6, Y0, Y1
	VFMADD231PD Y7, Y0, Y2
	VMOVUPD     Y1, (DX)
	VMOVUPD     Y2, 32(DX)
	ADDQ        R8, DX

	// column 2
	VMOVUPD     (DX), Y1
	VMOVUPD     32(DX), Y2
	VFMADD231PD Y8, Y0, Y1
	VFMADD231PD Y9, Y0, Y2
	VMOVUPD     Y1, (DX)
	VMOVUPD     Y2, 32(DX)
	ADDQ        R8, DX

	// column 3
	VMOVUPD     (DX), Y1
	VMOVUPD     32(DX), Y2
	VFMADD231PD Y10, Y0, Y1
	VFMADD231PD Y11, Y0, Y2
	VMOVUPD     Y1, (DX)
	VMOVUPD     Y2, 32(DX)

	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
