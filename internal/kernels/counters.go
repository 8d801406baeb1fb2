package kernels

// Counters tallies the global memory traffic and floating-point work of
// a kernel, with the accounting conventions of the paper's Table 6:
// every filter tap contributes two loads (input element and weight) and
// two flops (multiply and add); comparisons are not flops; each output
// element is one store.
type Counters struct {
	Loads  uint64
	Stores uint64
	Flops  uint64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Loads += o.Loads
	c.Stores += o.Stores
	c.Flops += o.Flops
}

// Bytes returns the total global memory traffic in bytes (float32
// elements).
func (c Counters) Bytes() uint64 { return 4 * (c.Loads + c.Stores) }

// ConvCounters returns the Table 6 accounting for a stride-1 "same"
// convolution.
func ConvCounters(s ConvShape) Counters {
	taps := uint64(s.InC) * uint64(s.K) * uint64(s.K)
	outs := uint64(s.OutC) * uint64(s.H) * uint64(s.W)
	return Counters{
		Loads:  outs * taps * 2,
		Stores: outs,
		Flops:  outs * taps * 2,
	}
}

// DeconvCounters returns the Table 6 accounting for a stride-1 "same"
// deconvolution (identical totals to the convolution of the same shape;
// the performance difference is access regularity, not volume).
func DeconvCounters(s ConvShape) Counters { return ConvCounters(s) }

// PoolCounters returns the Table 6 accounting for 3×3/s2 max pooling of
// a C×H×W input: nine loads per output, no flops (comparisons are not
// counted).
func PoolCounters(c, h, w int) Counters {
	outs := uint64(c) * uint64(h/2) * uint64(w/2)
	return Counters{Loads: outs * 9, Stores: outs, Flops: 0}
}

// UnpoolCounters returns the Table 6 accounting for 2× bilinear
// un-pooling of a C×H×W input: four loads and fourteen flops per output.
func UnpoolCounters(c, h, w int) Counters {
	outs := uint64(c) * uint64(2*h) * uint64(2*w)
	return Counters{Loads: outs * 4, Stores: outs, Flops: outs * 14}
}

// LeakyReLUCounters returns one load, one store, one flop per element.
func LeakyReLUCounters(n int) Counters {
	return Counters{Loads: uint64(n), Stores: uint64(n), Flops: uint64(n)}
}

// BatchNormCounters returns five loads (x, γ, β, μ, σ²) and five flops
// per element, one store.
func BatchNormCounters(n int) Counters {
	return Counters{Loads: uint64(n) * 5, Stores: uint64(n), Flops: uint64(n) * 5}
}

// ClassCounts groups DDnet's operation counts the way Tables 4, 5 and 7
// report runtimes: the convolution kernel, the deconvolution kernel, and
// everything else (pooling, un-pooling, batch norm, activation).
type ClassCounts struct {
	Conv, Deconv, Other Counters
}

// Total returns the sum over classes.
func (c ClassCounts) Total() Counters {
	t := c.Conv
	t.Add(c.Deconv)
	t.Add(c.Other)
	return t
}

// DDnetCounts accumulates the analytic operation counts per kernel
// class over the architecture's trace at the given input size. Every
// BatchNorm + leaky ReLU is counted under Other, matching the network
// definition.
func DDnetCounts(cfg Arch, size int) ClassCounts {
	var cc ClassCounts
	addBNAct := func(n int) {
		cc.Other.Add(BatchNormCounters(n))
		cc.Other.Add(LeakyReLUCounters(n))
	}
	for _, op := range Trace(cfg, size, size) {
		switch op.Kind {
		case OpConv:
			c := ConvCounters(ConvShape{InC: op.In.C, H: op.In.H, W: op.In.W, OutC: op.Out.C, K: op.Layer.K})
			if op.Layer.Deconv {
				cc.Deconv.Add(c)
			} else {
				cc.Conv.Add(c)
			}
			if op.Layer.BNAct {
				addBNAct(op.Out.Len())
			}
		case OpBNAct:
			addBNAct(op.Out.Len())
		case OpPool:
			cc.Other.Add(PoolCounters(op.In.C, op.In.H, op.In.W))
		case OpUnpool:
			cc.Other.Add(UnpoolCounters(op.In.C, op.In.H, op.In.W))
		}
	}
	return cc
}
