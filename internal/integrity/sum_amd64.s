#include "textflag.h"

// FOLD carries the two 128-bit lanes of acc forward by the distance k was
// built for: acc = acc.lo⊗k.lo ⊕ acc.hi⊗k.hi, lane by lane.
#define FOLD(k, acc, tmp) \
	VPCLMULQDQ $0x00, k, acc, tmp; \
	VPCLMULQDQ $0x11, k, acc, acc; \
	VPXOR      tmp, acc, acc

// func foldCLMUL(p []byte, k *[6]uint64) uint32 returns the CRC-32C of p,
// len(p) a non-zero multiple of 256 (Gopal et al., "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009).
// Eight 256-bit accumulators fold 256 bytes a stride against k[0:2], then
// into one against k[2:4], its lanes into one against k[4:6].
TEXT ·foldCLMUL(SB), NOSPLIT, $0-36
	MOVQ p_base+0(FP), SI
	MOVQ p_len+8(FP), CX
	MOVQ k+24(FP), DX

	VMOVDQU 0(SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VMOVDQU 128(SI), Y4
	VMOVDQU 160(SI), Y5
	VMOVDQU 192(SI), Y6
	VMOVDQU 224(SI), Y7

	// The CRC's initial ~0, folded into the first four bytes.
	MOVL $0xffffffff, AX
	VMOVD AX, X8
	VPXOR Y8, Y0, Y0

	VBROADCASTI128 0(DX), Y8
	ADDQ $256, SI
	SUBQ $256, CX
	JZ   merge

stride:
	FOLD(Y8, Y0, Y9)
	VPXOR 0(SI), Y0, Y0
	FOLD(Y8, Y1, Y10)
	VPXOR 32(SI), Y1, Y1
	FOLD(Y8, Y2, Y11)
	VPXOR 64(SI), Y2, Y2
	FOLD(Y8, Y3, Y12)
	VPXOR 96(SI), Y3, Y3
	FOLD(Y8, Y4, Y13)
	VPXOR 128(SI), Y4, Y4
	FOLD(Y8, Y5, Y14)
	VPXOR 160(SI), Y5, Y5
	FOLD(Y8, Y6, Y15)
	VPXOR 192(SI), Y6, Y6
	FOLD(Y8, Y7, Y9)
	VPXOR 224(SI), Y7, Y7
	ADDQ $256, SI
	SUBQ $256, CX
	JNZ  stride

merge:
	VBROADCASTI128 16(DX), Y8
	FOLD(Y8, Y0, Y9)
	VPXOR Y0, Y1, Y1
	FOLD(Y8, Y1, Y9)
	VPXOR Y1, Y2, Y2
	FOLD(Y8, Y2, Y9)
	VPXOR Y2, Y3, Y3
	FOLD(Y8, Y3, Y9)
	VPXOR Y3, Y4, Y4
	FOLD(Y8, Y4, Y9)
	VPXOR Y4, Y5, Y5
	FOLD(Y8, Y5, Y9)
	VPXOR Y5, Y6, Y6
	FOLD(Y8, Y6, Y9)
	VPXOR Y6, Y7, Y7

	VMOVDQU    32(DX), X8
	VEXTRACTI128 $1, Y7, X10
	FOLD(X8, X7, X9)
	VPXOR      X10, X7, X7

	// The 128 bits left are congruent to the message: their CRC is its CRC.
	VMOVQ   X7, AX
	VPEXTRQ $1, X7, BX
	XORL    DX, DX
	CRC32Q  AX, DX
	CRC32Q  BX, DX
	NOTL    DX
	VZEROUPPER
	MOVL    DX, ret+32(FP)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
