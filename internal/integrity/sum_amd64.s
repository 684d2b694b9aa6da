#include "textflag.h"

// FOLD carries the two 128-bit lanes of acc forward by the distance k was
// built for: acc = acc.lo⊗k.lo ⊕ acc.hi⊗k.hi, lane by lane.
#define FOLD(k, acc, tmp) \
	VPCLMULQDQ $0x00, k, acc, tmp; \
	VPCLMULQDQ $0x11, k, acc, acc; \
	VPXOR      tmp, acc, acc

// ZFOLD is FOLD on the four lanes of a ZMM, XORing in the next 64 bytes.
#define ZFOLD(k, acc, tmp, next) \
	VPCLMULQDQ $0x00, k, acc, tmp; \
	VPCLMULQDQ $0x11, k, acc, acc; \
	VPTERNLOGD $0x96, next, tmp, acc

// HEAD(off, z, k) builds in z, with no copy through memory, the 64 bytes at
// off of a stride that is BX zero bytes and then the message at SI: it loads
// the 64 bytes a = max(off-BX, 0) into the message, XORs the CRC's init onto
// those of its first four they hold (initBytes, at DI, from a), and VPEXPANDB
// moves them behind the chunk's min(BX-off, 64) zeros. R11 is 0, R12 ^0.
#define HEAD(off, z, k) \
	MOVQ      $off, R8; \
	SUBQ      BX, R8; \
	MOVQ      R8, R9; \
	NEGQ      R9; \
	CMOVQLT   R11, R9; \
	ADDQ      R9, R8; \
	BZHIQ     R9, R12, R10; \
	NOTQ      R10; \
	KMOVQ     R10, k; \
	VMOVDQU64 (SI)(R8*1), z; \
	VPXORQ    (DI)(R8*1), z, z; \
	VPEXPANDB.Z z, k, z

// initBytes is the CRC's initial ~0 as four 0xff bytes, then zeros.
DATA  initBytes<>+0(SB)/4, $0xffffffff
GLOBL initBytes<>(SB), RODATA|NOPTR, $256

// func fold(p []byte, k *[6]uint64, wide bool) uint32 returns the CRC-32C
// of p (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction", Intel, 2009). Without wide, len(p) is a non-zero
// multiple of 256 and eight 256-bit accumulators fold 256 bytes a stride
// against k[0:2]; with wide (zmm: below), len(p) ≥ 256 and four 512-bit do.
// The eight then fold into one against k[2:4], its lanes against k[4:6].
TEXT ·fold(SB), NOSPLIT, $0-44
	MOVQ p_base+0(FP), SI
	MOVQ p_len+8(FP), CX
	MOVQ k+24(FP), DX
	CMPB wide+32(FP), $0
	JNE  zmm

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
	MOVL    DX, ret+40(FP)
	RET

	// The first stride is the head: BX = -len(p) mod 256 zero bytes, which
	// leave the CRC as it was, then p. When the CRC's four init bytes would
	// run past it, CRC32B takes p's one to three head bytes instead.
zmm:
	MOVQ CX, BX
	NEGQ BX
	ANDQ $255, BX
	MOVL $0xffffffff, AX
	CMPQ BX, $252
	JLE  head
byte:
	CRC32B (SI), AX
	INCQ   SI
	DECQ   CX
	INCB   BX
	JNZ    byte

head:
	XORL R11, R11
	MOVQ $-1, R12
	LEAQ initBytes<>(SB), DI
	HEAD(0, Z0, K1)
	HEAD(64, Z2, K2)
	HEAD(128, Z4, K3)
	HEAD(192, Z6, K4)

	// HEAD put ~0 on the first four bytes: after CRC32B they take its CRC,
	// and otherwise AX is ~0 and this XORs in nothing.
	NOTL   AX
	VMOVD  AX, X8
	VPXORQ Z8, Z0, Z0
	LEAQ 256(SI), SI
	SUBQ BX, SI
	LEAQ -256(CX)(BX*1), CX
	VBROADCASTI32X4 0(DX), Z8
	TESTQ CX, CX
	JZ    zmerge

zstride:
	ZFOLD(Z8, Z0, Z9, 0(SI))
	ZFOLD(Z8, Z2, Z10, 64(SI))
	ZFOLD(Z8, Z4, Z11, 128(SI))
	ZFOLD(Z8, Z6, Z12, 192(SI))
	ADDQ $256, SI
	SUBQ $256, CX
	JNZ  zstride

	// Z0, Z2, Z4, Z6: each upper half goes to the odd YMM after it for merge.
zmerge:
	VEXTRACTI64X4 $1, Z0, Y1
	VEXTRACTI64X4 $1, Z2, Y3
	VEXTRACTI64X4 $1, Z4, Y5
	VEXTRACTI64X4 $1, Z6, Y7
	JMP           merge

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
