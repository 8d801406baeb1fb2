package kernels

import "fmt"

// Impl is one rung of the optimization ladder: a matched pair of
// convolution and deconvolution kernels over flat CHW buffers. Rungs
// are registered in ladder order and looked up by name; the Table
// 4/5/7 timer and its drivers run them side by side. Inference does
// not pick a rung: every forward convolution calls ConvFused (or
// DeconvGEMM) directly, the kernels of the last two rungs. Every rung
// must agree with the "naive" rung to within the accumulation-order
// tolerance pinned by TestRegistryRungsMatchNaiveOracle.
type Impl struct {
	// Name selects the rung (MustSelect); ladder order is Names() order.
	Name string
	// Desc is a one-line description for benchmark reports.
	Desc string
	// Variant is the closest Table 7 ladder point, used where a rung
	// must be mapped onto the paper's projection model (device.Project
	// only distinguishes the four paper columns).
	Variant Variant
	// Conv computes a stride-1 "same" convolution (weights OutC,InC,K,K).
	Conv func(x, w, out []float32, s ConvShape, workers int)
	// Deconv computes a stride-1 "same" transposed convolution
	// (weights InC,OutC,K,K).
	Deconv func(x, w, out []float32, s ConvShape, workers int)
	// ConvEp, when non-nil, computes Conv with a fused per-output-
	// channel epilogue (bias + optional LeakyReLU applied tile-locally).
	// Only the fused rung sets it; the timer (RunDDnetImpl) and the
	// kernel benchmark tell that rung apart by it and time BN-folded
	// layers through it, with transposed-convolution weights flipped
	// once outside the timed region (FlipDeconvWeights).
	ConvEp func(x, w, out []float32, s ConvShape, workers int, ep Epilogue)
}

// registry and ladder are written only by init.
var (
	registry = map[string]*Impl{}
	ladder   []string // registration order = ladder order
)

func register(im *Impl) {
	if _, dup := registry[im.Name]; dup {
		panic("kernels: duplicate rung " + im.Name)
	}
	registry[im.Name] = im
	ladder = append(ladder, im.Name)
}

func init() {
	register(&Impl{
		Name:    "naive",
		Desc:    "direct loops; scatter deconvolution with per-tap index decode",
		Variant: Baseline,
		Conv:    convBaseline,
		Deconv:  deconvScatter,
	})
	register(&Impl{
		Name:    "ref",
		Desc:    "§4.2.1 refactoring: gather deconvolution, register accumulation",
		Variant: REF,
		Conv:    convBaseline,
		Deconv:  deconvGather,
	})
	register(&Impl{
		Name:    "ref+pf",
		Desc:    "§4.2.2 prefetching: filter taps staged, bounds hoisted",
		Variant: REFPF,
		Conv:    convPrefetch,
		Deconv:  deconvGatherPrefetch,
	})
	register(&Impl{
		Name:    "ref+pf+lu",
		Desc:    "§4.2.2 loop unrolling: branch-free unrolled interior sweep",
		Variant: REFPFLU,
		Conv:    convUnrolled,
		Deconv:  deconvGatherUnrolled,
	})
	register(&Impl{
		Name:    "gemm",
		Desc:    "implicit GEMM over the zero-padded input; 4-channel × 16-column register-blocked micro-kernel, AVX where probed (SSE otherwise)",
		Variant: REFPFLU,
		Conv:    convGEMM,
		Deconv:  DeconvGEMM,
	})
	register(&Impl{
		Name:    "fused",
		Desc:    "gemm + fused bias/BN/LeakyReLU epilogue; warm-time weight packing, persistent worker pool",
		Variant: REFPFLU,
		Conv:    convGEMM,
		Deconv:  DeconvGEMM,
		ConvEp:  ConvFused,
	})
}

// MustSelect returns the named rung; it panics on an unknown name, as
// every caller passes a name from Names or a literal.
func MustSelect(name string) *Impl {
	im, ok := registry[name]
	if !ok {
		panic(fmt.Sprintf("kernels: unknown rung %q (have %v)", name, ladder))
	}
	return im
}

// Names returns the rung names in ladder order (naive first, the
// fused rung inference runs last).
func Names() []string {
	return append([]string(nil), ladder...)
}

// BenchShape names one representative DDnet layer shape for the kernel
// benchmarks.
type BenchShape struct {
	Name   string
	Shape  ConvShape
	Deconv bool
}

// Table2Shapes returns representative DDnet layer shapes from the
// paper's Table 2 at the given trunk resolution (512 for the paper;
// benchmarks shrink it). One shape per layer family: the 7×7 stem, the
// dense-block 1×1 bottleneck and 5×5 growth convolutions, the 1×1
// transition, and the decoder's 5×5 and 1×1 deconvolutions.
func Table2Shapes(size int) []BenchShape {
	a := PaperArch()
	f, g := a.BaseChannels, a.Growth
	blockOut := f + a.DenseLayers*g
	h := size / 2 // first encoder / last decoder stage resolution
	return []BenchShape{
		{"stem 7x7", ConvShape{InC: 1, H: size, W: size, OutC: f, K: 7}, false},
		{"bottleneck 1x1", ConvShape{InC: blockOut - g, H: h, W: h, OutC: 4 * g, K: 1}, false},
		{"growth 5x5", ConvShape{InC: 4 * g, H: h, W: h, OutC: g, K: a.Kernel}, false},
		{"transition 1x1", ConvShape{InC: blockOut, H: h, W: h, OutC: f, K: 1}, false},
		{"deconv 5x5", ConvShape{InC: f + blockOut, H: h, W: h, OutC: 2 * f, K: a.Kernel}, true},
		{"deconv 1x1", ConvShape{InC: 2 * f, H: h, W: h, OutC: f, K: 1}, true},
	}
}
