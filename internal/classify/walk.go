package classify

import (
	"math/rand"

	"computecovid19/internal/ag"
	"computecovid19/internal/nn"
)

// The DenseNet-3D topology is written down exactly once, in walk, the
// way kernels.Walk does for DDnet. Construction, the autograd forward
// and the pooled eval forward are backends the walk drives; both
// forwards run each convolution through ag.EvalConv3D, the fused GEMM
// DDnet uses, with a depth axis. A compiled classifier plan would be
// another backend, never another copy of the stage loops.

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
}

// unit is the weights of one layer: the convolution (nil for a
// standalone BatchNorm) and the BatchNorm after it when there is one.
type unit struct {
	conv *nn.Conv3D
	bn   *nn.BatchNorm
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
	// pool is the 2×2×2/stride-2 max pool.
	pool(x T) T
	// concat joins vs[:n] along channels, n ≥ 2.
	concat(vs [maxFanIn]T, n int) T
	// free says x has had its last reader. The walk frees every
	// activation it obtained from the backend except the returned one,
	// and never the input.
	free(x T)
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
	h := b.pool(s)
	b.free(s)
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
			t := b.apply(next(layer{outC: ch, bnAct: true}), in)
			if l > 0 {
				b.free(in)
			}
			u := b.apply(next(layer{outC: 4 * g, k: 1, bnAct: true}), t)
			b.free(t)
			feats[l+1] = b.apply(next(layer{outC: g, k: cfg.Kernel}), u)
			b.free(u)
			ch += g
		}
		h = b.concat(feats, n+1)
		for l := 0; l <= n; l++ {
			b.free(feats[l])
		}
		if bi < len(cfg.BlockLayers)-1 {
			// Transition halves the channels (DenseNet compression 0.5).
			t := b.apply(next(layer{outC: ch / 2, k: 1, bnAct: true}), h)
			b.free(h)
			ch /= 2
			h = b.pool(t)
			b.free(t)
		}
	}
	t := b.apply(next(layer{outC: ch, bnAct: true}), h)
	b.free(h)
	return t
}

// builder is the construction backend: it walks channel counts and
// creates each layer's weights as the walk reaches it, so rng draws
// happen in walk order. The walk returns the feature width.
type builder struct {
	rng   *rand.Rand
	std   float64
	units []unit
}

func (b *builder) apply(l layer, inC int) int {
	var u unit
	if l.k > 0 {
		u.conv = nn.NewConv3D(b.rng, inC, l.outC, l.k, 1, l.k/2, false, b.std)
	}
	if l.bnAct {
		u.bn = nn.NewBatchNorm(l.outC)
	}
	b.units = append(b.units, u)
	return l.outC
}

func (b *builder) pool(c int) int { return c }
func (b *builder) free(int)       {}

func (b *builder) concat(vs [maxFanIn]int, n int) int {
	c := 0
	for _, v := range vs[:n] {
		c += v
	}
	return c
}

// graph is the autograd backend: training, and the bit-exact reference
// the pooled backend is tested against.
type graph []unit

func (g graph) apply(l layer, x *ag.Value) *ag.Value {
	if l.k > 0 {
		x = g[l.index].conv.Forward(x)
	}
	if l.bnAct {
		x = ag.ReLU(g[l.index].bn.Forward(x))
	}
	return x
}

func (g graph) pool(x *ag.Value) *ag.Value {
	return ag.MaxPool3D(x, ag.Pool2DConfig{Kernel: 2, Stride: 2})
}

func (g graph) concat(vs [maxFanIn]*ag.Value, n int) *ag.Value { return ag.Concat(1, vs[:n]...) }
func (g graph) free(*ag.Value)                                 {} // the tape keeps every activation for backward
