package kernels

// SSE is in the amd64 baseline (GOAMD64=v1), so the vector steps in
// gemm_amd64.s need no CPUID probe: they run on every amd64 CPU.

// gemmQuad computes, for j in [0, len(dst) &^ 3),
// dst[j] = (((dst[j] + a0·p0[j]) + a1·p1[j]) + a2·p2[j]) + a3·p3[j]
// four columns per step, and returns len(dst) &^ 3 for gemmRow's Go
// loop to go on from. Each tap is one MULPS then one ADDPS, which lane
// for lane is the scalar MULSS/ADDSS sequence of that loop. Every p
// must hold at least len(dst) &^ 3 values.
//
//go:noescape
func gemmQuad(dst, p0, p1, p2, p3 []float32, a0, a1, a2, a3 float32) int

// gemmTap computes dst[j] += a·p[j] for j in [0, len(dst) &^ 3), four
// columns per step, and returns len(dst) &^ 3. p must hold at least
// that many values.
//
//go:noescape
func gemmTap(dst, p []float32, a float32) int
