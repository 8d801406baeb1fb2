// Package kernels reimplements the paper's OpenCL inference kernels
// (§4.2) as plain Go functions over flat CHW float32 buffers: the six
// operations DDnet inference needs — convolution, deconvolution, max
// pooling, bilinear un-pooling, batch normalization, and leaky ReLU.
// Each has one forward that every caller runs: the autograd graph and
// eval ops in ag, DDnet and the classifier through them, and the
// Table 5 timer. Max pooling (2D and 3D), un-pooling, batch
// normalization and leaky ReLU are one plane loop each (planes.go).
// The convolution and deconvolution also come in the optimization
// variants of Table 7, rungs of a registry whose fast rungs run one
// implicit GEMM:
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
// The package also provides the analytic operation counters behind
// Table 6 (global loads, stores, floating-point operations), validated
// against instrumented kernels in the tests.
package kernels

// Variant is an optimization level from Table 7 — the column key of the
// paper's projection model (device.Project). The kernels themselves are
// selected by rung name through the registry; the first four rungs
// (Names()[:4]) are the paper's ladder and each Impl names its Variant.
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

// PaperArch returns the Table 2 architecture (ddnet.PaperConfig's
// shape).
func PaperArch() Arch {
	return Arch{BaseChannels: 16, Growth: 16, DenseLayers: 4, Kernel: 5, Stages: 4}
}

// TinyArch returns the reduced test architecture (ddnet.TinyConfig's
// shape).
func TinyArch() Arch {
	return Arch{BaseChannels: 8, Growth: 8, DenseLayers: 2, Kernel: 3, Stages: 2}
}

// ConvShape describes a stride-1 "same" convolution or deconvolution
// layer on a CHW buffer: InC input channels of H×W, OutC outputs, odd
// square kernel K with padding K/2. A depth D > 0 makes it volumetric:
// CDHW buffers and a cubic K×K×K kernel padded K/2 on every axis. D == 0
// is the 2D layer (one plane, no depth taps). Only ConvFused takes a
// volumetric shape; the registry rungs are 2D.
type ConvShape struct {
	InC, H, W, OutC, K int
	D                  int
}

// depth returns the number of planes and of depth taps: (1, 1) for a 2D
// layer, (D, K) for a volumetric one.
func (s ConvShape) depth() (d, kd int) {
	if s.D == 0 {
		return 1, 1
	}
	return s.D, s.K
}

// InLen returns the input buffer length.
func (s ConvShape) InLen() int {
	d, _ := s.depth()
	return s.InC * d * s.H * s.W
}

// OutLen returns the output buffer length.
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
