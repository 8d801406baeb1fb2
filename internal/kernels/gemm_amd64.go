package kernels

// SSE is in the amd64 baseline (GOAMD64=v1), so gemmQuad and gemmTap
// need no probe: they run on every amd64 CPU. The AVX block kernels
// run only where cpuHasAVX finds the instructions and the OS support
// for the YMM state, and their AVX-512 twins only where cpuHasAVX512
// finds AVX-512F and the OS support for the opmask and ZMM state.

// useAVX selects the AVX block kernels (gemmBlock, gemmBlock6,
// gemmBlock1) for ConvFused; without them every column goes through
// gemmRow. It is set once by the CPUID probe; tests clear it to run the
// fallback on AVX hardware.
var useAVX = cpuHasAVX()

// useAVX512 selects the 32-column ZMM blocks (gemmBlockZ, gemmBlock6Z,
// gemmBlock1Z) for ConvFused's runs of at least 32 columns and its
// spanning blocks; the YMM blocks still take what is left. It is set
// once by the CPUID probe, and only with useAVX; tests clear it to run
// the YMM blocks alone.
var useAVX512 = useAVX && cpuHasAVX512()

func cpuHasAVX() bool

func cpuHasAVX512() bool

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

// gemmBlock computes four output channels over one 16-column block:
// dst[c·ds+j] = act(bias[c] + Σ_t w[c·r+t]·x[offs[t]+j]) for c < 4 and
// j < 16, with r = len(offs), the sum in ascending t, and act the
// LeakyReLU with slope when act is set. The caller guarantees what the
// assembly cannot check: x holds max(offs)+16 values, w 4·r, bias 4,
// and dst 3·ds+16.
//
//go:noescape
func gemmBlock(dst []float32, ds int, x []float32, offs []int32, w []float32, bias []float32, act bool, slope float32)

// gemmBlock6 is gemmBlock for six output channels: x must hold
// max(offs)+16 values, w 6·r, bias 6, and dst 5·ds+16.
//
//go:noescape
func gemmBlock6(dst []float32, ds int, x []float32, offs []int32, w []float32, bias []float32, act bool, slope float32)

// gemmBlock1 is gemmBlock for one output channel: dst[j] = act(bias +
// Σ_t w[t]·x[offs[t]+j]) for j < 16. x must hold max(offs)+16 values,
// w len(offs), dst 16.
//
//go:noescape
func gemmBlock1(dst, x []float32, offs []int32, w []float32, bias float32, act bool, slope float32)

// gemmBlockZ is gemmBlock on a 32-column block, j < 32: x must hold
// max(offs)+32 values, w 4·r, bias 4, and dst 3·ds+32. Lane for lane
// it runs gemmBlock's instructions, so it gives the same bits.
//
//go:noescape
func gemmBlockZ(dst []float32, ds int, x []float32, offs []int32, w []float32, bias []float32, act bool, slope float32)

// gemmBlock6Z is gemmBlock6 on a 32-column block: x must hold
// max(offs)+32 values, w 6·r, bias 6, and dst 5·ds+32.
//
//go:noescape
func gemmBlock6Z(dst []float32, ds int, x []float32, offs []int32, w []float32, bias []float32, act bool, slope float32)

// gemmBlock1Z is gemmBlock1 on a 32-column block: x must hold
// max(offs)+32 values, w len(offs), dst 32.
//
//go:noescape
func gemmBlock1Z(dst, x []float32, offs []int32, w []float32, bias float32, act bool, slope float32)

// laneCeilingY and laneCeilingZ run n rounds of twelve independent
// YMM (ZMM) multiply-then-add pairs on registers alone: the rate the
// block kernels' instruction pattern can reach (BenchmarkLaneCeiling).
func laneCeilingY(n int)

func laneCeilingZ(n int)
