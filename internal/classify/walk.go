package classify

import (
	"math/rand"

	"computecovid19/internal/ag"
	"computecovid19/internal/nn"
)

// The DenseNet-3D topology is written down exactly once, in walk, the
// way kernels.Walk does for DDnet. Construction, the autograd forward
// and the eval forward on the compiled plan are backends the walk
// drives; both forwards run each convolution on kernels.ConvFused, the
// GEMM DDnet uses, with a depth axis.

// layer is one parameter-bearing position of the walk: a k³ "same" 3D
// convolution to outC channels optionally followed by BatchNorm + ReLU,
// or (k == 0) a standalone BatchNorm + ReLU.
type layer struct {
	// index is the layer's position among all layers in walk order —
	// the key backends use to find its weights.
	index   int
	outC, k int
	// bnAct says BatchNorm + ReLU follow the convolution (always true
	// when k == 0).
	bnAct bool
	// dense marks the layers of a dense block.
	dense bool
}

// maxFanIn bounds a dense block's concat fan-in (block input plus one
// growth map per layer; DenseNet-121's widest block has 24 layers).
// Operands travel in a fixed array passed by value so the pooled walk
// allocates nothing: a slice handed through the backend interface would
// escape to the heap on every call.
const maxFanIn = 32

// backend interprets the walk over activations of type T.
type backend[T any] interface {
	// apply runs layer l — its convolution when l.k > 0, then its
	// BatchNorm + ReLU when l.bnAct — and returns a fresh activation; x
	// is left intact (it may have other readers).
	apply(l layer, x T) T
	// Reserve says the next pool output opens a c-channel dense block
	// that a k×k convolution reads, as kernels.Backend's Reserve does.
	Reserve(c, k int)
	// pool is the 2×2×2/stride-2 max pool.
	pool(x T) T
	// concat joins vs[:n] along channels, n ≥ 2.
	concat(vs [maxFanIn]T, n int) T
	// Free says x has had its last reader. The walk frees every
	// activation it obtained from the backend except the returned one,
	// and never the input.
	Free(x T)
}

// walk runs the trunk on x: stem convolution and pool, then per dense
// block its layers (BN → ReLU → 1³ bottleneck → BN → ReLU → k³ growth
// convolution, each reading the concat of the block input and every
// earlier growth map) and, between blocks, a channel-halving 1³
// transition and pool; finally BN → ReLU. The head — global average
// pool and the linear layer — is not part of the topology; callers
// apply it.
func walk[T any](cfg Config, b backend[T], x T) T {
	idx := 0
	next := func(l layer) layer {
		l.index = idx
		idx++
		return l
	}
	g, ch := cfg.Growth, cfg.InitChannels

	s := b.apply(next(layer{outC: ch, k: 3, bnAct: true}), x)
	b.Reserve(ch+cfg.BlockLayers[0]*g, 1)
	h := b.pool(s)
	b.Free(s)
	for bi, n := range cfg.BlockLayers {
		if n < 1 || n >= maxFanIn {
			panic("classify: walk wants 1..31 layers per dense block")
		}
		var feats [maxFanIn]T
		feats[0] = h
		in := h
		for l := 0; l < n; l++ {
			if l > 0 {
				in = b.concat(feats, l+1)
			}
			t := b.apply(next(layer{outC: ch, bnAct: true, dense: true}), in)
			if l > 0 {
				b.Free(in)
			}
			u := b.apply(next(layer{outC: 4 * g, k: 1, bnAct: true, dense: true}), t)
			b.Free(t)
			feats[l+1] = b.apply(next(layer{outC: g, k: cfg.Kernel, dense: true}), u)
			b.Free(u)
			ch += g
		}
		h = b.concat(feats, n+1)
		for l := 0; l <= n; l++ {
			b.Free(feats[l])
		}
		if bi < len(cfg.BlockLayers)-1 {
			// Transition halves the channels (DenseNet compression 0.5).
			t := b.apply(next(layer{outC: ch / 2, k: 1, bnAct: true}), h)
			b.Free(h)
			ch /= 2
			b.Reserve(ch+cfg.BlockLayers[bi+1]*g, 1)
			h = b.pool(t)
			b.Free(t)
		}
	}
	t := b.apply(next(layer{outC: ch, bnAct: true}), h)
	b.Free(h)
	return t
}

// builder is the construction backend: it walks channel counts and
// creates each layer's weights as the walk reaches it, so rng draws
// happen in walk order. The walk returns the feature width.
type builder struct {
	rng   *rand.Rand
	std   float64
	units []nn.Unit
}

func (b *builder) apply(l layer, inC int) int {
	var u nn.Unit
	if l.k > 0 {
		u.Conv = nn.NewConv3D(b.rng, inC, l.outC, l.k, false, b.std)
	}
	if l.bnAct {
		u.BN = nn.NewBatchNorm(l.outC)
	}
	b.units = append(b.units, u)
	return l.outC
}

func (b *builder) Reserve(int, int) {}
func (b *builder) pool(c int) int   { return c }
func (b *builder) Free(int)         {}

func (b *builder) concat(vs [maxFanIn]int, n int) int {
	c := 0
	for _, v := range vs[:n] {
		c += v
	}
	return c
}

// graph is the autograd backend: training, and the reference the eval
// backend is tested against.
type graph []nn.Unit

func (g graph) apply(l layer, x *ag.Value) *ag.Value {
	if l.k > 0 {
		x = g[l.index].Conv.Forward(x)
	}
	if l.bnAct {
		x = ag.ReLU(g[l.index].BN.Forward(x))
	}
	return x
}

func (g graph) pool(x *ag.Value) *ag.Value {
	return ag.MaxPool3D(x, ag.Pool2DConfig{Kernel: 2, Stride: 2})
}

func (g graph) concat(vs [maxFanIn]*ag.Value, n int) *ag.Value { return ag.Concat(1, vs[:n]...) }
func (g graph) Reserve(int, int)                               {}
func (g graph) Free(*ag.Value)                                 {} // the tape keeps every activation for backward
