// Package kernels reimplements the paper's OpenCL inference kernels
// (§4.2) as plain Go functions over flat CHW float32 buffers: the six
// operations DDnet inference needs — convolution, deconvolution, max
// pooling, bilinear un-pooling, batch normalization, and leaky ReLU.
// Each has one forward that every caller runs: the autograd graph and
// eval ops in ag, DDnet and the classifier through them, and the
// Table 5 timer. Max pooling (2D and 3D), un-pooling, batch
// normalization and leaky ReLU are one plane loop each (planes.go).
// The convolution and deconvolution also come in the four optimization
// variants of Table 7, the paper's ladder, keyed by Variant
// (Variant.Conv, Variant.Deconv):
//
//	Baseline   naive loops; the deconvolution uses the scatter
//	           formulation with per-tap integer divisions and recurring
//	           global read-modify-writes
//	REF        the §4.2.1 refactoring: deconvolution gathers input
//	           contributions per output element (inverse coefficient
//	           mapping), accumulating in a register
//	PF         §4.2.2 memory prefetching: loop bounds and filter taps
//	           hoisted into locals before the hot loop
//	LU         §4.2.2 loop unrolling: the multiply-add loop unrolled by
//	           the filter width (fully unrolled for k ≤ 5)
//
// Inference runs none of them: every forward convolution calls the
// implicit GEMM (ConvFused, DeconvGEMM), which is not a ladder point.
// The Table 4/5/7 timer (RunDDnet) runs the variants side by side.
//
// The package also provides the analytic operation counters behind
// Table 6 (global loads, stores, floating-point operations), validated
// against instrumented kernels in the tests.
package kernels

// Variant is an optimization level from Table 7: the column key of the
// paper's projection model (device.Project) and the one name of a
// ladder rung. Iterate the ladder as for v := Baseline; v <= REFPFLU; v++.
type Variant int

// Optimization ladder (cumulative, matching the Table 7 columns).
const (
	Baseline Variant = iota
	REF
	REFPF
	REFPFLU
)

// String names the variant as Table 7 does.
func (v Variant) String() string {
	switch v {
	case Baseline:
		return "Baseline"
	case REF:
		return "Baseline + REF"
	case REFPF:
		return "Baseline + REF + PF"
	case REFPFLU:
		return "Baseline + REF + PF + LU"
	default:
		return "Unknown"
	}
}

// rungs holds each Variant's kernel pair, indexed by the Variant.
var rungs = [...]struct {
	conv, deconv func(x, w, out []float32, s ConvShape, workers int)
}{
	Baseline: {convBaseline, deconvScatter},
	REF:      {convBaseline, deconvGather},
	REFPF:    {convPrefetch, deconvGatherPrefetch},
	REFPFLU:  {convUnrolled, deconvGatherUnrolled},
}

// Conv computes a stride-1 "same" 2D convolution (weights OutC, InC, K,
// K) with v's kernel on workers workers (<= 0: GOMAXPROCS).
func (v Variant) Conv(x, w, out []float32, s ConvShape, workers int) {
	rungs[v].conv(x, w, out, s, workers)
}

// Deconv computes a stride-1 "same" 2D transposed convolution (weights
// InC, OutC, K, K) with v's kernel on workers workers (<= 0:
// GOMAXPROCS).
func (v Variant) Deconv(x, w, out []float32, s ConvShape, workers int) {
	rungs[v].deconv(x, w, out, s, workers)
}

// Arch is the shape of a DDnet — what Walk needs to spell the topology:
// a dependency-free mirror of ddnet.Config's shape fields. Keeping it
// (and the walk) here lets the autograd fast paths that feed nn/ddnet
// depend on kernels without an import cycle; ddnet.Config.Arch
// converts.
type Arch struct {
	// BaseChannels is the trunk width F (paper: 16).
	BaseChannels int
	// Growth is the dense-block growth rate (paper: 16).
	Growth int
	// DenseLayers is the number of densely connected layers per block.
	DenseLayers int
	// Kernel is the spatial kernel of growth convolutions and k×k
	// deconvolutions (paper: 5).
	Kernel int
	// Stages is the number of pooling levels / dense blocks.
	Stages int
}

// ConvShape describes a stride-1 "same" convolution or deconvolution
// layer on a CHW buffer: InC input channels of H×W, OutC outputs, odd
// square kernel K with padding K/2. A depth D > 0 makes it volumetric:
// CDHW buffers and a cubic K×K×K kernel padded K/2 on every axis. D == 0
// is the 2D layer (one plane, no depth taps). Only ConvFused takes a
// volumetric shape. ConvFused reads a K > 1 layer's input halo-padded
// by K/2 (Pad) and writes its output halo-padded by Halo (0: compact);
// the Variant kernels read and write compact buffers (InLen, OutLen).
type ConvShape struct {
	InC, H, W, OutC, K int
	D                  int
	Halo               int
}

// depth returns the number of planes and of depth taps: (1, 1) for a 2D
// layer, (D, K) for a volumetric one.
func (s ConvShape) depth() (d, kd int) {
	if s.D == 0 {
		return 1, 1
	}
	return s.D, s.K
}

// InLen returns the compact input buffer length.
func (s ConvShape) InLen() int {
	d, _ := s.depth()
	return s.InC * d * s.H * s.W
}

// OutLen returns the compact output buffer length.
func (s ConvShape) OutLen() int {
	d, _ := s.depth()
	return s.OutC * d * s.H * s.W
}

// WeightLen returns the weight buffer length (OutC·InC·K·K, times K
// more for a volumetric layer).
func (s ConvShape) WeightLen() int {
	_, kd := s.depth()
	return s.OutC * s.InC * kd * s.K * s.K
}
