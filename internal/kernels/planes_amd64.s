#include "textflag.h"

// The plane kernels work four columns per step and cover a row of
// n >= 4 columns in full: steps at columns 0, 4, 8, … while a whole
// step fits, then, when n is not a multiple of four, one last step at
// column n-4 that recomputes a few columns already written. Each step
// reads only the sources and writes only dst, and dst aliases no
// source, so the recomputed columns get the same bits again. A row of
// fewer than four columns is left to the Go loop (the kernel returns 0).
//
// Every max is MAXPS with the candidate as the destination and the
// best so far as the source: lane for lane that is
// "candidate > best ? candidate : best", the strict first-wins compare
// of the Go loop, so a NaN candidate never wins, and on a tie (+0
// against −0 included) the earlier tap stays. The best starts at −Inf.

// NEGINF broadcasts −Inf (0xff800000) into every lane of reg.
#define NEGINF(reg) \
	MOVL   $0xff800000, R11; \
	MOVQ   R11, reg; \
	SHUFPS $0, reg, reg

// SETUP starts a row of n >= 4 columns, n in CX: BX gets the byte
// offset of the last step, 4·(n−4), and AX, the step's dst byte
// offset, starts at 0.
#define SETUP \
	MOVQ CX, BX; \
	SUBQ $4, BX; \
	SHLQ $2, BX; \
	XORQ AX, AX

// NEXT advances AX by one step and jumps to loop while a step is left:
// the next whole one, or else, unless the step just done was at BX,
// the overlapping last one at BX.
#define NEXT(loop) \
	ADDQ    $16, AX; \
	CMPQ    AX, BX; \
	JLE     loop; \
	LEAQ    16(BX), DX; \
	CMPQ    AX, DX; \
	CMOVQLT BX, AX; \
	JLT     loop

// func maxPairs(dst, src []float32) int
//
// dst[j] = max(src[2j], src[2j+1]), first tap winning, for j < n =
// len(dst): the stride-2 x pass of a 2-wide window. The two loads of
// eight sources are split into their even and odd lanes by SHUFPS
// $0x88 and $0xDD. src must hold 2n values.
TEXT ·maxPairs(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ $0, ret+48(FP)
	CMPQ CX, $4
	JLT  pairsdone
	MOVQ CX, ret+48(FP)
	SETUP
	NEGINF(X7)

pairsloop:
	MOVUPS (SI)(AX*2), X0
	MOVUPS 16(SI)(AX*2), X1
	MOVAPS X0, X2
	SHUFPS $0x88, X1, X0
	SHUFPS $0xDD, X1, X2
	MAXPS  X7, X0
	MAXPS  X0, X2
	MOVUPS X2, (DI)(AX*1)
	NEXT(pairsloop)

pairsdone:
	RET

// func maxTriples(dst, src []float32) int
//
// dst[j] = max(src[2j], src[2j+1], src[2j+2]) in that tap order for
// j < n = len(dst): the interior of the stride-2 x pass of a 3-wide
// window. The left and centre taps are the even and odd lanes of
// src[2j…2j+7], the right taps the odd lanes of src[2j+1…2j+8]. src
// must hold 2n+1 values.
TEXT ·maxTriples(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ $0, ret+48(FP)
	CMPQ CX, $4
	JLT  triplesdone
	MOVQ CX, ret+48(FP)
	SETUP
	NEGINF(X7)

triplesloop:
	MOVUPS (SI)(AX*2), X0
	MOVUPS 16(SI)(AX*2), X1
	MOVAPS X0, X2
	SHUFPS $0x88, X1, X0
	SHUFPS $0xDD, X1, X2
	MOVUPS 4(SI)(AX*2), X3
	MOVUPS 20(SI)(AX*2), X4
	SHUFPS $0xDD, X4, X3
	MAXPS  X7, X0
	MAXPS  X0, X2
	MAXPS  X2, X3
	MOVUPS X3, (DI)(AX*1)
	NEXT(triplesloop)

triplesdone:
	RET

// func maxRows(dst, src []float32, stride, rows int) int
//
// dst[j] = max over r < rows of src[r·stride+j], first row winning, for
// j < n = len(dst): the y and z passes, which combine whole pooled rows
// (or slabs) lane by lane. rows must be at least 1 and src must hold
// (rows−1)·stride+n values.
TEXT ·maxRows(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ stride+48(FP), R8
	SHLQ $2, R8
	MOVQ rows+56(FP), R9
	MOVQ $0, ret+64(FP)
	CMPQ CX, $4
	JLT  rowsdone
	MOVQ CX, ret+64(FP)
	SETUP
	NEGINF(X7)

rowsloop:
	MOVAPS X7, X0
	LEAQ   (SI)(AX*1), DX
	MOVQ   R9, R10

rowsinner:
	MOVUPS (DX), X1
	MAXPS  X0, X1
	MOVAPS X1, X0
	ADDQ   R8, DX
	DECQ   R10
	JNZ    rowsinner
	MOVUPS X0, (DI)(AX*1)
	NEXT(rowsloop)

rowsdone:
	RET

// func lerpRows(dst, top, bot []float32, wy float32) int
//
// dst[j] = top[j] + wy·(bot[j]−top[j]) for j < n = len(dst): the
// vertical blend of the up-sample, one SUBPS, one MULPS and one ADDPS
// per step and no fused multiply-add, so every lane rounds as the Go
// loop does. top and bot must hold n values.
TEXT ·lerpRows(SB), NOSPLIT, $0-88
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), CX
	MOVQ  top_base+24(FP), R8
	MOVQ  bot_base+48(FP), R9
	MOVSS wy+72(FP), X6
	SHUFPS $0, X6, X6
	MOVQ $0, ret+80(FP)
	CMPQ CX, $4
	JLT  lerpdone
	MOVQ CX, ret+80(FP)
	SETUP

lerploop:
	MOVUPS (R8)(AX*1), X0
	MOVUPS (R9)(AX*1), X1
	SUBPS  X0, X1
	MULPS  X6, X1
	ADDPS  X0, X1
	MOVUPS X1, (DI)(AX*1)
	NEXT(lerploop)

lerpdone:
	RET

// func lerpPairs(dst, src []float32, f0, f1 float32) int
//
// For i < n = len(dst)/2, with d = src[i+1]−src[i]:
// dst[2i] = src[i] + f0·d and dst[2i+1] = src[i] + f1·d — the interior
// of the ×2 horizontal pass, where each source pair feeds two outputs.
// Per step one SUBPS, then per weight one MULPS and one ADDPS, and
// UNPCKLPS/UNPCKHPS interleave the two results. src must hold n+1
// values. The steps run over the n pairs, so the last one recomputes
// whole pairs of outputs.
TEXT ·lerpPairs(SB), NOSPLIT, $0-64
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	SHRQ   $1, CX
	MOVQ   src_base+24(FP), SI
	MOVSS  f0+48(FP), X6
	SHUFPS $0, X6, X6
	MOVSS  f1+52(FP), X7
	SHUFPS $0, X7, X7
	MOVQ   $0, ret+56(FP)
	CMPQ   CX, $4
	JLT    lpairsdone
	MOVQ   CX, ret+56(FP)
	SETUP

lpairsloop:
	MOVUPS   (SI)(AX*1), X0
	MOVUPS   4(SI)(AX*1), X1
	SUBPS    X0, X1
	MOVAPS   X1, X2
	MULPS    X6, X1
	ADDPS    X0, X1
	MULPS    X7, X2
	ADDPS    X0, X2
	MOVAPS   X1, X3
	UNPCKLPS X2, X1
	UNPCKHPS X2, X3
	MOVUPS   X1, (DI)(AX*2)
	MOVUPS   X3, 16(DI)(AX*2)
	NEXT(lpairsloop)

lpairsdone:
	RET

// func bnActRow(dst, src []float32, s, t, slope float32) int
//
// dst[j] = lrelu(s·src[j] + t) for j < len(dst) &^ 3, four per step:
// one MULPS and one ADDPS, then, in the lanes where the sum is below
// zero (CMPPS LT: never a NaN, never −0), its product with slope,
// merged in by ANDPS/ANDNPS/ORPS. That is the Go loop's multiply, add
// and compare, lane for lane, so every bit is its own. Unlike the
// kernels above it has no overlapping last step, because dst may be
// src: it returns len(dst) &^ 3 and leaves the tail to the Go loop.
// src must hold that many values.
TEXT ·bnActRow(SB), NOSPLIT, $0-72
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	ANDQ   $-4, CX
	MOVQ   CX, ret+64(FP)
	MOVQ   src_base+24(FP), SI
	MOVSS  s+48(FP), X4
	SHUFPS $0, X4, X4
	MOVSS  t+52(FP), X5
	SHUFPS $0, X5, X5
	MOVSS  slope+56(FP), X6
	SHUFPS $0, X6, X6
	XORPS  X7, X7
	SHRQ   $2, CX
	JZ     bnactdone
	XORQ   AX, AX

bnactloop:
	MOVUPS (SI)(AX*1), X0
	MULPS  X4, X0
	ADDPS  X5, X0
	MOVAPS X0, X1
	CMPPS  X7, X1, $1
	MOVAPS X0, X2
	MULPS  X6, X2
	ANDPS  X1, X2
	ANDNPS X0, X1
	ORPS   X2, X1
	MOVUPS X1, (DI)(AX*1)
	ADDQ   $16, AX
	DECQ   CX
	JNZ    bnactloop

bnactdone:
	RET
