package ddnet

import (
	"fmt"

	"computecovid19/internal/kernels"
)

// LayerKind tags a row of the architecture table.
type LayerKind int

// Layer kinds appearing in DDnet's Table 2 trace.
const (
	KindConv LayerKind = iota
	KindPool
	KindDenseBlock
	KindUnpool
	KindDeconv
)

// String names the layer kind as the paper's Table 2 does.
func (k LayerKind) String() string {
	switch k {
	case KindConv:
		return "Convolution"
	case KindPool:
		return "Pooling"
	case KindDenseBlock:
		return "Dense Block"
	case KindUnpool:
		return "Un-pooling"
	case KindDeconv:
		return "Deconvolution"
	default:
		return "Unknown"
	}
}

// LayerShape is one row of the DDnet architecture trace: the layer and
// its output extent, mirroring Table 2 of the paper.
type LayerShape struct {
	Kind     LayerKind
	Name     string
	OutC     int // output channels
	OutH     int
	OutW     int
	Kernel   int // filter size (0 where not applicable)
	Stride   int
	InC      int // input channels
	ScaleFac int // un-pooling scale factor (0 otherwise)
}

// Details renders the paper's "Details" column.
func (l LayerShape) Details() string {
	switch l.Kind {
	case KindUnpool:
		return fmt.Sprintf("scale factor=%d", l.ScaleFac)
	case KindDenseBlock:
		return fmt.Sprintf("filter size=[1x1; %dx%d] x layers, stride=%d", l.Kernel, l.Kernel, l.Stride)
	default:
		return fmt.Sprintf("filter size=%dx%d, stride=%d", l.Kernel, l.Kernel, l.Stride)
	}
}

// LayerShapes renders the walk's trace for a square input of the given
// size at Table 2's granularity — one row per pool, dense block,
// un-pool and (de)convolution outside a dense block — reproducing
// Table 2 for the paper configuration at size 512.
func (m *DDnet) LayerShapes(size int) []LayerShape {
	var rows []LayerShape
	var count [KindDeconv + 1]int
	add := func(kind LayerKind, out kernels.Dims, r LayerShape) {
		count[kind]++
		r.Kind, r.Name = kind, fmt.Sprintf("%s %d", kind, count[kind])
		r.OutC, r.OutH, r.OutW = out.C, out.H, out.W
		rows = append(rows, r)
	}
	var blockIn kernels.Dims // input of the dense block being traced
	for _, op := range kernels.Trace(m.Cfg.Arch(), size, size) {
		switch {
		case op.Kind == kernels.OpPool:
			add(KindPool, op.Out, LayerShape{Kernel: 3, Stride: 2, InC: op.In.C})
			blockIn = op.Out
		case op.Kind == kernels.OpUnpool:
			add(KindUnpool, op.Out, LayerShape{ScaleFac: 2, InC: op.In.C})
		case op.Kind != kernels.OpConv || op.Layer.Dense:
			// Dense layers fold into the block row emitted below.
		case op.Layer.Deconv:
			add(KindDeconv, op.Out, LayerShape{Kernel: op.Layer.K, Stride: 1, InC: op.In.C})
		default:
			if blockIn.C != 0 { // a transition: its input is the finished block
				add(KindDenseBlock, op.In, LayerShape{Kernel: m.Cfg.Kernel, Stride: 1, InC: blockIn.C})
				blockIn = kernels.Dims{}
			}
			add(KindConv, op.Out, LayerShape{Kernel: op.Layer.K, Stride: 1, InC: op.In.C})
		}
	}
	return rows
}
