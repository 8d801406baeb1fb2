package nn

import (
	"computecovid19/internal/kernels"
	"computecovid19/internal/memplan"
	"computecovid19/internal/tensor"
)

// Act is an activation of a plan forward (one image, channels
// outermost): C channels of D×H×W (D == 0: 2D) in Data, halo-padded by
// K/2 for the K×K convolution that reads it (K ≤ 1: compact).
type Act struct {
	Data          []float32
	C, D, H, W, K int
	// T is the (1, C, [D,] H, W) tensor, halo included, x was drawn
	// as; nil for a part of a concat.
	T *tensor.Tensor
}

// pad zeroes x's halo, after copying the compact src in when not nil.
func (x Act) pad(src []float32) {
	if x.K > 1 || src != nil {
		kernels.Pad(src, x.Data, kernels.ConvShape{InC: x.C, D: x.D, H: x.H, W: x.W, K: max(x.K, 1)})
	}
}

// Acts draws a plan forward's activations from a scope, each written
// once, where its reader reads it: a K > 1 convolution's input is
// halo-padded, the halo zeroed once, when it is drawn; a concat is one
// buffer (Pleiss et al., arXiv:1707.06990), opened by the op that
// writes its first channels, its later parts written in place (Slot)
// or copied in once (Concat). Nothing else is cleared.
type Acts struct {
	Sc       *memplan.Scope
	cat      Act // the open concat
	fill     int // its channels written so far
	width, k int // the next concat's channels and reader kernel
}

// Get draws c channels shaped like x for a k×k reader, the halo zeroed
// and the compact src, when not nil, copied in.
func (a *Acts) Get(c int, x Act, k int, src []float32) Act {
	x.C, x.K = c, k
	if g := max(k-1, 0); x.D > 0 {
		x.T = a.Sc.Get(1, c, x.D+g, x.H+g, x.W+g)
	} else {
		x.T = a.Sc.Get(1, c, x.H+g, x.W+g)
	}
	x.Data = x.T.Data
	x.pad(src)
	return x
}

// Reserve says the next Open draws a c-channel concat that a k×k
// convolution reads.
func (a *Acts) Reserve(c, k int) { a.width, a.k = c, k }

// Open draws the reserved concat shaped like x, its halo zeroed, and
// returns its first c channels, for the caller to write.
func (a *Acts) Open(c int, x Act) Act {
	a.cat, a.fill = a.Get(a.width, x, a.k, nil), 0
	return a.Slot(c, nil)
}

// Slot returns the open concat's next c channels, for their producer
// to write, or holding the compact src copied in.
func (a *Acts) Slot(c int, src []float32) Act {
	x, n := a.cat, len(a.cat.Data)/a.cat.C // n: a channel
	x.C, x.Data, x.T = c, x.Data[a.fill*n:(a.fill+c)*n], nil
	if src != nil {
		x.pad(src)
	}
	a.fill += c
	return x
}

// Concat joins vs in the open concat, whose leading channels they are
// or into which the rest are copied: the concat itself once every
// channel is written, else its written prefix.
func (a *Acts) Concat(vs []Act) Act {
	c := 0
	for _, v := range vs {
		if c == a.fill {
			a.Slot(v.C, v.Data)
		}
		c += v.C
	}
	x := a.cat
	if c < a.width {
		x.C, x.Data, x.T = c, x.Data[:c*len(x.Data)/x.C], nil
	}
	return x
}

// Free says x has had its last reader.
func (a *Acts) Free(x Act) {
	if x.T != nil {
		a.Sc.Free(x.T)
	}
}
