#include "textflag.h"

// func gemmQuad(dst, p0, p1, p2, p3 []float32, a0, a1, a2, a3 float32) int
//
// Four columns per step: acc = dst; acc += a0·p0; acc += a1·p1;
// acc += a2·p2; acc += a3·p3 — each "+=" one MULPS into a scratch
// register then one ADDPS of acc into it, never a fused multiply-add,
// so every lane rounds exactly as the scalar loop does. The product is
// the ADDPS destination, as in the compiled Go loop, so when both
// operands are NaN the product's payload wins there too. The running
// sum alternates between X1 and X2.
TEXT ·gemmQuad(SB), NOSPLIT, $0-144
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), CX
	ANDQ  $-4, CX
	MOVQ  CX, ret+136(FP)
	MOVQ  p0_base+24(FP), R8
	MOVQ  p1_base+48(FP), R9
	MOVQ  p2_base+72(FP), R10
	MOVQ  p3_base+96(FP), R11
	MOVSS a0+120(FP), X4
	SHUFPS $0, X4, X4
	MOVSS a1+124(FP), X5
	SHUFPS $0, X5, X5
	MOVSS a2+128(FP), X6
	SHUFPS $0, X6, X6
	MOVSS a3+132(FP), X7
	SHUFPS $0, X7, X7
	SHRQ  $2, CX
	JZ    quaddone
	XORQ  AX, AX

quadloop:
	MOVUPS (DI)(AX*1), X0
	MOVUPS (R8)(AX*1), X1
	MULPS  X4, X1
	ADDPS  X0, X1
	MOVUPS (R9)(AX*1), X2
	MULPS  X5, X2
	ADDPS  X1, X2
	MOVUPS (R10)(AX*1), X1
	MULPS  X6, X1
	ADDPS  X2, X1
	MOVUPS (R11)(AX*1), X2
	MULPS  X7, X2
	ADDPS  X1, X2
	MOVUPS X2, (DI)(AX*1)
	ADDQ   $16, AX
	DECQ   CX
	JNZ    quadloop

quaddone:
	RET

// func gemmTap(dst, p []float32, a float32) int
TEXT ·gemmTap(SB), NOSPLIT, $0-64
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), CX
	ANDQ  $-4, CX
	MOVQ  CX, ret+56(FP)
	MOVQ  p_base+24(FP), R8
	MOVSS a+48(FP), X4
	SHUFPS $0, X4, X4
	SHRQ  $2, CX
	JZ    tapdone
	XORQ  AX, AX

taploop:
	MOVUPS (DI)(AX*1), X0
	MOVUPS (R8)(AX*1), X1
	MULPS  X4, X1
	ADDPS  X0, X1
	MOVUPS X1, (DI)(AX*1)
	ADDQ   $16, AX
	DECQ   CX
	JNZ    taploop

tapdone:
	RET

// One tap of one output channel on the 16-column block: a VBROADCASTSS
// of the channel's weight, then per 8-column half one VMULPS of the
// input by it into a product register and one VADDPS of the product
// and the running sum. The input is the multiply's first source and
// the product the add's first source, as in gemmQuad, and there is no
// fused multiply-add, so every lane rounds as the scalar loop does.
#define TAP(wrow, acc0, acc1) \
	VBROADCASTSS (wrow)(AX*4), Y10; \
	VMULPS       Y10, Y8, Y11; \
	VADDPS       acc0, Y11, acc0; \
	VMULPS       Y10, Y9, Y12; \
	VADDPS       acc1, Y12, acc1

// The epilogue's LeakyReLU on one accumulator: lanes below zero (not
// NaN, not -0) take the product with the slope in Y13; Y14 holds zero,
// and mask and prod are scratch.
#define LRELU(acc, mask, prod) \
	VCMPPS    $0x11, Y14, acc, mask; \
	VMULPS    Y13, acc, prod; \
	VBLENDVPS mask, prod, acc, acc

// func gemmBlock(dst []float32, ds int, x []float32, offs []int32, w []float32, bias []float32, act bool, slope float32)
//
// Four output channels × 16 columns: for c in [0, 4) and j in [0, 16),
// dst[c·ds+j] = act(bias[c] + Σ_t w[c·r+t]·x[offs[t]+j]), r = len(offs),
// the sum in ascending t. The eight accumulators (Y0–Y7, two per
// channel) stay in registers across the whole reduction; the bias
// seeds them and the LeakyReLU runs on them before the one store.
TEXT ·gemmBlock(SB), NOSPLIT, $0-136
	MOVQ offs_base+56(FP), R12
	MOVQ offs_len+64(FP), CX
	MOVQ x_base+32(FP), SI
	MOVQ w_base+80(FP), R8
	LEAQ (R8)(CX*4), R9
	LEAQ (R9)(CX*4), R10
	LEAQ (R10)(CX*4), R11
	MOVQ bias_base+104(FP), DX
	VBROADCASTSS (DX), Y0
	VBROADCASTSS (DX), Y1
	VBROADCASTSS 4(DX), Y2
	VBROADCASTSS 4(DX), Y3
	VBROADCASTSS 8(DX), Y4
	VBROADCASTSS 8(DX), Y5
	VBROADCASTSS 12(DX), Y6
	VBROADCASTSS 12(DX), Y7
	XORQ AX, AX
	TESTQ CX, CX
	JZ   blockepi

blockloop:
	MOVLQSX (R12)(AX*4), DX
	VMOVUPS (SI)(DX*4), Y8
	VMOVUPS 32(SI)(DX*4), Y9
	TAP(R8, Y0, Y1)
	TAP(R9, Y2, Y3)
	TAP(R10, Y4, Y5)
	TAP(R11, Y6, Y7)
	INCQ AX
	CMPQ AX, CX
	JLT  blockloop

blockepi:
	CMPB act+128(FP), $0
	JEQ  blockstore
	VBROADCASTSS slope+132(FP), Y13
	VXORPS Y14, Y14, Y14
	LRELU(Y0, Y11, Y12)
	LRELU(Y1, Y11, Y12)
	LRELU(Y2, Y11, Y12)
	LRELU(Y3, Y11, Y12)
	LRELU(Y4, Y11, Y12)
	LRELU(Y5, Y11, Y12)
	LRELU(Y6, Y11, Y12)
	LRELU(Y7, Y11, Y12)

blockstore:
	MOVQ    dst_base+0(FP), DI
	MOVQ    ds+24(FP), BX
	SHLQ    $2, BX
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    BX, DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ    BX, DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ    BX, DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	VZEROUPPER
	RET

// TAP6 is TAP for gemmBlock6, whose twelve accumulators leave it Y12
// and Y13 for the input, Y14 for the weight and Y15 for the products.
#define TAP6(wrow, acc0, acc1) \
	VBROADCASTSS (wrow)(AX*4), Y14; \
	VMULPS       Y14, Y12, Y15; \
	VADDPS       acc0, Y15, acc0; \
	VMULPS       Y14, Y13, Y15; \
	VADDPS       acc1, Y15, acc1

// func gemmBlock6(dst []float32, ds int, x []float32, offs []int32, w []float32, bias []float32, act bool, slope float32)
//
// gemmBlock for six output channels, in twelve accumulators (Y0–Y11):
// one load of the input window per tap feeds all six, where a 4-channel
// block and two gemmBlock1 passes would load it three times and run two
// dependent add chains each. The weight rows are R8–R11, R13 and DI.
TEXT ·gemmBlock6(SB), NOSPLIT, $0-136
	MOVQ offs_base+56(FP), R12
	MOVQ offs_len+64(FP), CX
	MOVQ x_base+32(FP), SI
	MOVQ w_base+80(FP), R8
	LEAQ (R8)(CX*4), R9
	LEAQ (R9)(CX*4), R10
	LEAQ (R10)(CX*4), R11
	LEAQ (R11)(CX*4), R13
	LEAQ (R13)(CX*4), DI
	MOVQ bias_base+104(FP), DX
	VBROADCASTSS (DX), Y0
	VBROADCASTSS (DX), Y1
	VBROADCASTSS 4(DX), Y2
	VBROADCASTSS 4(DX), Y3
	VBROADCASTSS 8(DX), Y4
	VBROADCASTSS 8(DX), Y5
	VBROADCASTSS 12(DX), Y6
	VBROADCASTSS 12(DX), Y7
	VBROADCASTSS 16(DX), Y8
	VBROADCASTSS 16(DX), Y9
	VBROADCASTSS 20(DX), Y10
	VBROADCASTSS 20(DX), Y11
	XORQ AX, AX
	TESTQ CX, CX
	JZ   sixepi

sixloop:
	MOVLQSX (R12)(AX*4), DX
	VMOVUPS (SI)(DX*4), Y12
	VMOVUPS 32(SI)(DX*4), Y13
	TAP6(R8, Y0, Y1)
	TAP6(R9, Y2, Y3)
	TAP6(R10, Y4, Y5)
	TAP6(R11, Y6, Y7)
	TAP6(R13, Y8, Y9)
	TAP6(DI, Y10, Y11)
	INCQ AX
	CMPQ AX, CX
	JLT  sixloop

sixepi:
	CMPB act+128(FP), $0
	JEQ  sixstore
	VBROADCASTSS slope+132(FP), Y13
	VXORPS Y14, Y14, Y14
	LRELU(Y0, Y12, Y15)
	LRELU(Y1, Y12, Y15)
	LRELU(Y2, Y12, Y15)
	LRELU(Y3, Y12, Y15)
	LRELU(Y4, Y12, Y15)
	LRELU(Y5, Y12, Y15)
	LRELU(Y6, Y12, Y15)
	LRELU(Y7, Y12, Y15)
	LRELU(Y8, Y12, Y15)
	LRELU(Y9, Y12, Y15)
	LRELU(Y10, Y12, Y15)
	LRELU(Y11, Y12, Y15)

sixstore:
	MOVQ    dst_base+0(FP), DI
	MOVQ    ds+24(FP), BX
	SHLQ    $2, BX
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    BX, DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ    BX, DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ    BX, DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	ADDQ    BX, DI
	VMOVUPS Y8, (DI)
	VMOVUPS Y9, 32(DI)
	ADDQ    BX, DI
	VMOVUPS Y10, (DI)
	VMOVUPS Y11, 32(DI)
	VZEROUPPER
	RET

// func gemmBlock1(dst, x []float32, offs []int32, w []float32, bias float32, act bool, slope float32)
//
// gemmBlock for one output channel: dst[j] = act(bias + Σ_t
// w[t]·x[offs[t]+j]) for j in [0, 16), in two accumulators.
TEXT ·gemmBlock1(SB), NOSPLIT, $0-108
	MOVQ offs_base+48(FP), R12
	MOVQ offs_len+56(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ w_base+72(FP), R8
	VBROADCASTSS bias+96(FP), Y0
	VBROADCASTSS bias+96(FP), Y1
	XORQ AX, AX
	TESTQ CX, CX
	JZ   oneepi

oneloop:
	MOVLQSX (R12)(AX*4), DX
	VMOVUPS (SI)(DX*4), Y8
	VMOVUPS 32(SI)(DX*4), Y9
	TAP(R8, Y0, Y1)
	INCQ AX
	CMPQ AX, CX
	JLT  oneloop

oneepi:
	CMPB act+100(FP), $0
	JEQ  onestore
	VBROADCASTSS slope+104(FP), Y13
	VXORPS Y14, Y14, Y14
	LRELU(Y0, Y11, Y12)
	LRELU(Y1, Y11, Y12)

onestore:
	MOVQ    dst_base+0(FP), DI
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET

// func cpuHasAVX() bool
//
// CPUID leaf 1 ECX: OSXSAVE (bit 27) and AVX (bit 28); then XGETBV
// XCR0 bits 1 and 2: the OS saves the XMM and YMM state.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   avxdone
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   avxdone
	MOVB  $1, ret+0(FP)

avxdone:
	RET
