//go:build amd64 && !purego

#include "textflag.h"

// AVX bodies of the lane loops (see vec.go). Every body has the Go
// signature func(dst, x, y, z *float64, n int), n a positive multiple
// of 8, and runs 8 lanes an iteration as two 4-wide halves in Y0 and Y1.
// An iteration loads every lane it reads before it stores, so dst may be
// x, y or z exactly. Operands keep the instruction's written order: Go's
// "OP b, a, d" is d = a OP b, so the left operand is always the register
// the value was loaded into. No body contracts a multiply and an add.

#define ARGS \
	MOVQ dst+0(FP), DI; \
	MOVQ x+8(FP), SI; \
	MOVQ y+16(FP), DX; \
	MOVQ z+24(FP), CX; \
	MOVQ n+32(FP), BX; \
	XORQ AX, AX

// T = x OP y, into Y0 and Y1.
#define FIRST(OP) \
	VMOVUPD (SI)(AX*8), Y0; \
	VMOVUPD 32(SI)(AX*8), Y1; \
	OP (DX)(AX*8), Y0, Y0; \
	OP 32(DX)(AX*8), Y1, Y1

#define STORE \
	VMOVUPD Y0, (DI)(AX*8); \
	VMOVUPD Y1, 32(DI)(AX*8); \
	ADDQ $8, AX; \
	CMPQ AX, BX; \
	JLT loop; \
	VZEROUPPER; \
	RET

// dst = x OP y.
#define BINARY(NAME, OP) \
TEXT NAME(SB), NOSPLIT, $0-40; \
	ARGS; \
loop: \
	FIRST(OP); \
	STORE

// dst = (x OP1 y) OP2 z: the first instruction's result is the second's
// left operand.
#define PAIRL(NAME, OP1, OP2) \
TEXT NAME(SB), NOSPLIT, $0-40; \
	ARGS; \
loop: \
	FIRST(OP1); \
	OP2 (CX)(AX*8), Y0, Y0; \
	OP2 32(CX)(AX*8), Y1, Y1; \
	STORE

// dst = z OP2 (x OP1 y): the first instruction's result is the second's
// right operand.
#define PAIRR(NAME, OP1, OP2) \
TEXT NAME(SB), NOSPLIT, $0-40; \
	ARGS; \
loop: \
	FIRST(OP1); \
	VMOVUPD (CX)(AX*8), Y2; \
	VMOVUPD 32(CX)(AX*8), Y3; \
	OP2 Y0, Y2, Y0; \
	OP2 Y1, Y3, Y1; \
	STORE

BINARY(·vaddpd, VADDPD)
BINARY(·vsubpd, VSUBPD)
BINARY(·vmulpd, VMULPD)
BINARY(·vdivpd, VDIVPD)

PAIRL(·addAddL, VADDPD, VADDPD)
PAIRR(·addAddR, VADDPD, VADDPD)
PAIRL(·addSubL, VADDPD, VSUBPD)
PAIRR(·addSubR, VADDPD, VSUBPD)
PAIRL(·addMulL, VADDPD, VMULPD)
PAIRR(·addMulR, VADDPD, VMULPD)
PAIRL(·addDivL, VADDPD, VDIVPD)
PAIRR(·addDivR, VADDPD, VDIVPD)
PAIRL(·subAddL, VSUBPD, VADDPD)
PAIRR(·subAddR, VSUBPD, VADDPD)
PAIRL(·subSubL, VSUBPD, VSUBPD)
PAIRR(·subSubR, VSUBPD, VSUBPD)
PAIRL(·subMulL, VSUBPD, VMULPD)
PAIRR(·subMulR, VSUBPD, VMULPD)
PAIRL(·subDivL, VSUBPD, VDIVPD)
PAIRR(·subDivR, VSUBPD, VDIVPD)
PAIRL(·mulAddL, VMULPD, VADDPD)
PAIRR(·mulAddR, VMULPD, VADDPD)
PAIRL(·mulSubL, VMULPD, VSUBPD)
PAIRR(·mulSubR, VMULPD, VSUBPD)
PAIRL(·mulMulL, VMULPD, VMULPD)
PAIRR(·mulMulR, VMULPD, VMULPD)
PAIRL(·mulDivL, VMULPD, VDIVPD)
PAIRR(·mulDivR, VMULPD, VDIVPD)
PAIRL(·divAddL, VDIVPD, VADDPD)
PAIRR(·divAddR, VDIVPD, VADDPD)
PAIRL(·divSubL, VDIVPD, VSUBPD)
PAIRR(·divSubR, VDIVPD, VSUBPD)
PAIRL(·divMulL, VDIVPD, VMULPD)
PAIRR(·divMulR, VDIVPD, VMULPD)
PAIRL(·divDivL, VDIVPD, VDIVPD)
PAIRR(·divDivR, VDIVPD, VDIVPD)

// func avxProbe() bool: CPUID.1:ECX reports AVX (bit 28) and OSXSAVE
// (bit 27), and XCR0 says the OS saves the SSE and AVX state (bits 1, 2).
TEXT ·avxProbe(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET
