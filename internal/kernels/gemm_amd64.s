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

// One multiply-add of one vector of lanes: a VMULPS of the input by the
// weight into a product register, then a VADDPS of the product and the
// running sum. The input is the multiply's first source and the product
// the add's first source, as in gemmQuad, and there is no fused
// multiply-add, so every lane rounds as the scalar loop does. Every
// block kernel, YMM or ZMM, and BenchmarkLaneCeiling's loops run this
// one body.
#define MAC(in, wt, prod, acc) \
	VMULPS wt, in, prod; \
	VADDPS acc, prod, acc

// One tap of one output channel on a block of two input vectors (in0,
// in1: 16 columns in YMM, 32 in ZMM): a VBROADCASTSS of the channel's
// weight into wt, then one MAC per vector, into the scratch products
// prod0 and prod1.
#define TAP(wrow, in0, in1, wt, prod0, prod1, acc0, acc1) \
	VBROADCASTSS (wrow)(AX*4), wt; \
	MAC(in0, wt, prod0, acc0); \
	MAC(in1, wt, prod1, acc1)

// The epilogue's LeakyReLU on one YMM accumulator: lanes below zero (not
// NaN, not -0) take the product with the slope in Y13; Y14 holds zero,
// and mask and prod are scratch.
#define LRELU(acc, mask, prod) \
	VCMPPS    $0x11, Y14, acc, mask; \
	VMULPS    Y13, acc, prod; \
	VBLENDVPS mask, prod, acc, acc

// LRELU on one ZMM accumulator: the same ordered less-than compare sets
// an opmask bit for each lane below zero (not NaN, not -0), and only
// those lanes take the product with the slope in Z13, so every lane
// gets the bits VBLENDVPS gives it. Z14 holds zero; K1 is scratch.
#define LRELUZ(acc) \
	VCMPPS $0x11, Z14, acc, K1; \
	VMULPS Z13, acc, K1, acc

// SEED broadcasts one channel's bias, at off(DX), into both of its
// accumulators.
#define SEED(off, acc0, acc1) \
	VBROADCASTSS off(DX), acc0; \
	VBROADCASTSS off(DX), acc1

// LOAD reads tap AX's input window, the block's two vectors (width
// bytes each) from x[offs[AX]] on.
#define LOAD(in0, in1, width) \
	MOVLQSX (R12)(AX*4), DX; \
	VMOVUPS (SI)(DX*4), in0; \
	VMOVUPS width(SI)(DX*4), in1

// STORE writes one channel's two accumulators (width bytes each) at DI.
#define STORE(acc0, acc1, width) \
	VMOVUPS acc0, (DI); \
	VMOVUPS acc1, width(DI)

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
	SEED(0, Y0, Y1)
	SEED(4, Y2, Y3)
	SEED(8, Y4, Y5)
	SEED(12, Y6, Y7)
	XORQ AX, AX
	TESTQ CX, CX
	JZ   blockepi

blockloop:
	LOAD(Y8, Y9, 32)
	TAP(R8, Y8, Y9, Y10, Y11, Y12, Y0, Y1)
	TAP(R9, Y8, Y9, Y10, Y11, Y12, Y2, Y3)
	TAP(R10, Y8, Y9, Y10, Y11, Y12, Y4, Y5)
	TAP(R11, Y8, Y9, Y10, Y11, Y12, Y6, Y7)
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
	STORE(Y0, Y1, 32)
	ADDQ BX, DI
	STORE(Y2, Y3, 32)
	ADDQ BX, DI
	STORE(Y4, Y5, 32)
	ADDQ BX, DI
	STORE(Y6, Y7, 32)
	VZEROUPPER
	RET

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
	SEED(0, Y0, Y1)
	SEED(4, Y2, Y3)
	SEED(8, Y4, Y5)
	SEED(12, Y6, Y7)
	SEED(16, Y8, Y9)
	SEED(20, Y10, Y11)
	XORQ AX, AX
	TESTQ CX, CX
	JZ   sixepi

sixloop:
	LOAD(Y12, Y13, 32)
	TAP(R8, Y12, Y13, Y14, Y15, Y15, Y0, Y1)
	TAP(R9, Y12, Y13, Y14, Y15, Y15, Y2, Y3)
	TAP(R10, Y12, Y13, Y14, Y15, Y15, Y4, Y5)
	TAP(R11, Y12, Y13, Y14, Y15, Y15, Y6, Y7)
	TAP(R13, Y12, Y13, Y14, Y15, Y15, Y8, Y9)
	TAP(DI, Y12, Y13, Y14, Y15, Y15, Y10, Y11)
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
	STORE(Y0, Y1, 32)
	ADDQ BX, DI
	STORE(Y2, Y3, 32)
	ADDQ BX, DI
	STORE(Y4, Y5, 32)
	ADDQ BX, DI
	STORE(Y6, Y7, 32)
	ADDQ BX, DI
	STORE(Y8, Y9, 32)
	ADDQ BX, DI
	STORE(Y10, Y11, 32)
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
	LOAD(Y8, Y9, 32)
	TAP(R8, Y8, Y9, Y10, Y11, Y12, Y0, Y1)
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
	STORE(Y0, Y1, 32)
	VZEROUPPER
	RET

// func gemmBlockZ(dst []float32, ds int, x []float32, offs []int32, w []float32, bias []float32, act bool, slope float32)
//
// gemmBlock on a 32-column block: two ZMM accumulators per channel
// (Z0–Z7), the same registers and the same TAP as gemmBlock's YMM ones,
// and the LeakyReLU through an opmask (LRELUZ).
TEXT ·gemmBlockZ(SB), NOSPLIT, $0-136
	MOVQ offs_base+56(FP), R12
	MOVQ offs_len+64(FP), CX
	MOVQ x_base+32(FP), SI
	MOVQ w_base+80(FP), R8
	LEAQ (R8)(CX*4), R9
	LEAQ (R9)(CX*4), R10
	LEAQ (R10)(CX*4), R11
	MOVQ bias_base+104(FP), DX
	SEED(0, Z0, Z1)
	SEED(4, Z2, Z3)
	SEED(8, Z4, Z5)
	SEED(12, Z6, Z7)
	XORQ AX, AX
	TESTQ CX, CX
	JZ   zblockepi

zblockloop:
	LOAD(Z8, Z9, 64)
	TAP(R8, Z8, Z9, Z10, Z11, Z12, Z0, Z1)
	TAP(R9, Z8, Z9, Z10, Z11, Z12, Z2, Z3)
	TAP(R10, Z8, Z9, Z10, Z11, Z12, Z4, Z5)
	TAP(R11, Z8, Z9, Z10, Z11, Z12, Z6, Z7)
	INCQ AX
	CMPQ AX, CX
	JLT  zblockloop

zblockepi:
	CMPB act+128(FP), $0
	JEQ  zblockstore
	VBROADCASTSS slope+132(FP), Z13
	VXORPS X14, X14, X14 // the VEX write clears all of Z14
	LRELUZ(Z0)
	LRELUZ(Z1)
	LRELUZ(Z2)
	LRELUZ(Z3)
	LRELUZ(Z4)
	LRELUZ(Z5)
	LRELUZ(Z6)
	LRELUZ(Z7)

zblockstore:
	MOVQ    dst_base+0(FP), DI
	MOVQ    ds+24(FP), BX
	SHLQ    $2, BX
	STORE(Z0, Z1, 64)
	ADDQ BX, DI
	STORE(Z2, Z3, 64)
	ADDQ BX, DI
	STORE(Z4, Z5, 64)
	ADDQ BX, DI
	STORE(Z6, Z7, 64)
	VZEROUPPER
	RET

// func gemmBlock6Z(dst []float32, ds int, x []float32, offs []int32, w []float32, bias []float32, act bool, slope float32)
//
// gemmBlock6 on a 32-column block, in twelve ZMM accumulators (Z0–Z11).
TEXT ·gemmBlock6Z(SB), NOSPLIT, $0-136
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
	SEED(0, Z0, Z1)
	SEED(4, Z2, Z3)
	SEED(8, Z4, Z5)
	SEED(12, Z6, Z7)
	SEED(16, Z8, Z9)
	SEED(20, Z10, Z11)
	XORQ AX, AX
	TESTQ CX, CX
	JZ   zsixepi

zsixloop:
	LOAD(Z12, Z13, 64)
	TAP(R8, Z12, Z13, Z14, Z15, Z15, Z0, Z1)
	TAP(R9, Z12, Z13, Z14, Z15, Z15, Z2, Z3)
	TAP(R10, Z12, Z13, Z14, Z15, Z15, Z4, Z5)
	TAP(R11, Z12, Z13, Z14, Z15, Z15, Z6, Z7)
	TAP(R13, Z12, Z13, Z14, Z15, Z15, Z8, Z9)
	TAP(DI, Z12, Z13, Z14, Z15, Z15, Z10, Z11)
	INCQ AX
	CMPQ AX, CX
	JLT  zsixloop

zsixepi:
	CMPB act+128(FP), $0
	JEQ  zsixstore
	VBROADCASTSS slope+132(FP), Z13
	VXORPS X14, X14, X14
	LRELUZ(Z0)
	LRELUZ(Z1)
	LRELUZ(Z2)
	LRELUZ(Z3)
	LRELUZ(Z4)
	LRELUZ(Z5)
	LRELUZ(Z6)
	LRELUZ(Z7)
	LRELUZ(Z8)
	LRELUZ(Z9)
	LRELUZ(Z10)
	LRELUZ(Z11)

zsixstore:
	MOVQ    dst_base+0(FP), DI
	MOVQ    ds+24(FP), BX
	SHLQ    $2, BX
	STORE(Z0, Z1, 64)
	ADDQ BX, DI
	STORE(Z2, Z3, 64)
	ADDQ BX, DI
	STORE(Z4, Z5, 64)
	ADDQ BX, DI
	STORE(Z6, Z7, 64)
	ADDQ BX, DI
	STORE(Z8, Z9, 64)
	ADDQ BX, DI
	STORE(Z10, Z11, 64)
	VZEROUPPER
	RET

// func gemmBlock1Z(dst, x []float32, offs []int32, w []float32, bias float32, act bool, slope float32)
//
// gemmBlock1 on a 32-column block, in two ZMM accumulators.
TEXT ·gemmBlock1Z(SB), NOSPLIT, $0-108
	MOVQ offs_base+48(FP), R12
	MOVQ offs_len+56(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ w_base+72(FP), R8
	VBROADCASTSS bias+96(FP), Z0
	VBROADCASTSS bias+96(FP), Z1
	XORQ AX, AX
	TESTQ CX, CX
	JZ   zoneepi

zoneloop:
	LOAD(Z8, Z9, 64)
	TAP(R8, Z8, Z9, Z10, Z11, Z12, Z0, Z1)
	INCQ AX
	CMPQ AX, CX
	JLT  zoneloop

zoneepi:
	CMPB act+100(FP), $0
	JEQ  zonestore
	VBROADCASTSS slope+104(FP), Z13
	VXORPS X14, X14, X14
	LRELUZ(Z0)
	LRELUZ(Z1)

zonestore:
	MOVQ    dst_base+0(FP), DI
	STORE(Z0, Z1, 64)
	VZEROUPPER
	RET

// The instruction ceiling of the block kernels' arithmetic, for
// BenchmarkLaneCeiling (Go has no assembly test files): n rounds of
// twelve independent MACs, on zeroed registers, with no load, so only
// the vector ports bound them. Twelve chains cover the add's latency
// on both of them.
#define CEILING(in, wt, p, a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11) \
	MAC(in, wt, p, a0); \
	MAC(in, wt, p, a1); \
	MAC(in, wt, p, a2); \
	MAC(in, wt, p, a3); \
	MAC(in, wt, p, a4); \
	MAC(in, wt, p, a5); \
	MAC(in, wt, p, a6); \
	MAC(in, wt, p, a7); \
	MAC(in, wt, p, a8); \
	MAC(in, wt, p, a9); \
	MAC(in, wt, p, a10); \
	MAC(in, wt, p, a11)

// The VEX writes clear all of each register, ZMM too.
#define ZEROS \
	VXORPS X0, X0, X0; \
	VXORPS X1, X1, X1; \
	VXORPS X2, X2, X2; \
	VXORPS X3, X3, X3; \
	VXORPS X4, X4, X4; \
	VXORPS X5, X5, X5; \
	VXORPS X6, X6, X6; \
	VXORPS X7, X7, X7; \
	VXORPS X8, X8, X8; \
	VXORPS X9, X9, X9; \
	VXORPS X10, X10, X10; \
	VXORPS X11, X11, X11; \
	VXORPS X12, X12, X12; \
	VXORPS X13, X13, X13

// func laneCeilingY(n int)
TEXT ·laneCeilingY(SB), NOSPLIT, $0-8
	MOVQ n+0(FP), CX
	ZEROS
	TESTQ CX, CX
	JZ   ceilydone

ceilyloop:
	CEILING(Y12, Y13, Y14, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	DECQ CX
	JNZ  ceilyloop

ceilydone:
	VZEROUPPER
	RET

// func laneCeilingZ(n int)
TEXT ·laneCeilingZ(SB), NOSPLIT, $0-8
	MOVQ n+0(FP), CX
	ZEROS
	TESTQ CX, CX
	JZ   ceilzdone

ceilzloop:
	CEILING(Z12, Z13, Z14, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11)
	DECQ CX
	JNZ  ceilzloop

ceilzdone:
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

// func cpuHasAVX512() bool
//
// CPUID leaf 0: leaf 7 exists; leaf 1 ECX: OSXSAVE (bit 27); leaf 7
// EBX: AVX512F (bit 16); then XGETBV XCR0 bits 1, 2 and 5–7: the OS
// saves the XMM, YMM, opmask and both halves of the ZMM state.
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	CMPL  AX, $7
	JLT   avx512done
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x08000000, CX
	JZ    avx512done
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x00010000, BX
	JZ    avx512done
	XORL  CX, CX
	XGETBV
	ANDL  $0xe6, AX
	CMPL  AX, $0xe6
	JNE   avx512done
	MOVB  $1, ret+0(FP)

avx512done:
	RET
