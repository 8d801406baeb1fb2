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
