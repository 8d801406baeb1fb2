package kernels

import (
	"fmt"
	"strconv"

	"computecovid19/internal/obs"
)

// The DDnet topology (the paper's Table 2) is written down exactly once,
// in Walk. Everything that needs the network — construction, the
// autograd forward, the pooled eval forward on the fused plan, the
// Table 2 / Table 6 shape-and-count trace, and the per-class kernel
// timing — is a Backend the walk drives, so a new rung or a new
// interpreter is a backend, never another copy of the stage loops.

// Layer is one parameter-bearing position of the walk: a convolution or
// transposed convolution, optionally followed by BatchNorm + LeakyReLU,
// or (K == 0) a standalone BatchNorm + LeakyReLU.
type Layer struct {
	// Index is the layer's position among all Layers in walk order; it
	// is the key backends use to find the layer's weights.
	Index        int
	InC, OutC, K int
	// Deconv marks a transposed convolution (weights InC, OutC, K, K).
	Deconv bool
	// Dense marks the layers of a dense block, which Table 2 reports as
	// one row.
	Dense bool
	// BNAct says BatchNorm + LeakyReLU follow the convolution (always
	// true when K == 0).
	BNAct bool
}

// MaxFanIn bounds both a concat's fan-in (block input plus DenseLayers
// growth maps) and the skip stack (stem plus Stages-1 dense blocks).
// Concat operands travel in a fixed array passed by value so the walk
// allocates nothing: a slice handed through the Backend interface would
// escape to the heap on every call.
const MaxFanIn = 8

// Backend interprets the walk over activations of type T.
type Backend[T any] interface {
	// Conv applies layer l (with its BatchNorm + LeakyReLU when
	// l.BNAct) and returns a fresh activation.
	Conv(l Layer, x T) T
	// BNAct applies the standalone BatchNorm + LeakyReLU layer l out of
	// place (x has other readers).
	BNAct(l Layer, x T) T
	// Pool is the 3×3/stride-2 max pool; Unpool the ×2 bilinear un-pool.
	Pool(x T) T
	Unpool(x T) T
	// Reserve says the next Pool or Unpool output opens a c-channel
	// concat that a k×k convolution reads, so a backend can draw it
	// whole, once, and have each part written in place.
	Reserve(c, k int)
	// Concat joins vs[:n] along channels, n ≥ 2.
	Concat(vs [MaxFanIn]T, n int) T
	// Free says x has had its last reader. The walk frees every
	// activation it obtained from the backend except the returned one,
	// and never the input.
	Free(x T)
}

// Walk runs the DDnet topology on x: stem, then per encoder stage
// (pool, dense block, 1×1 transition), then per decoder stage (un-pool,
// global-shortcut concat, k×k deconvolution, 1×1 deconvolution). The
// residual head is not part of the topology; callers add it.
//
// Each section runs under its own child of sp ("ddnet/stem",
// "ddnet/enc0", …, "ddnet/dec0", …), so chrome://tracing shows the
// per-layer split that Table 5 aggregates into conv/deconv/other. A nil
// sp (tracing off, or a backend with nothing to trace) builds no names,
// so the disabled path allocates nothing.
func Walk[T any](a Arch, b Backend[T], x T, sp *obs.Span) T {
	if a.Stages < 1 || a.Stages > MaxFanIn || a.DenseLayers < 1 || a.DenseLayers >= MaxFanIn {
		panic("kernels: Walk wants 1..8 stages and 1..7 dense layers")
	}
	f, g := a.BaseChannels, a.Growth
	blockOut := f + a.DenseLayers*g
	idx := 0
	next := func(l Layer) Layer {
		l.Index = idx
		idx++
		return l
	}

	ssp := sp.Child("ddnet/stem")
	stage := func(kind string, s int) {
		ssp.End()
		if sp != nil {
			ssp = sp.Child(kind + strconv.Itoa(s))
		}
	}

	h := b.Conv(next(Layer{InC: 1, OutC: f, K: 7, BNAct: true}), x)

	// skips[0] is the stem, skips[s+1] dense block s; the deepest block
	// feeds only its transition.
	var skips [MaxFanIn]T
	skips[0] = h
	for s := 0; s < a.Stages; s++ {
		stage("ddnet/enc", s)
		b.Reserve(blockOut, 1)
		p := b.Pool(h)
		if s > 0 {
			b.Free(h)
		}
		// Dense block: each layer reads the concat of the block input
		// and every earlier layer's growth maps.
		var feats [MaxFanIn]T
		feats[0] = p
		in, ch := p, f
		for l := 0; l < a.DenseLayers; l++ {
			if l > 0 {
				in = b.Concat(feats, l+1)
			}
			t := b.BNAct(next(Layer{InC: ch, OutC: ch, Dense: true, BNAct: true}), in)
			if l > 0 {
				b.Free(in)
			}
			u := b.Conv(next(Layer{InC: ch, OutC: 4 * g, K: 1, Dense: true, BNAct: true}), t)
			b.Free(t)
			feats[l+1] = b.Conv(next(Layer{InC: 4 * g, OutC: g, K: a.Kernel, Dense: true}), u)
			b.Free(u)
			ch += g
		}
		db := b.Concat(feats, a.DenseLayers+1)
		for l := 0; l <= a.DenseLayers; l++ {
			b.Free(feats[l])
		}
		h = b.Conv(next(Layer{InC: blockOut, OutC: f, K: 1, BNAct: true}), db)
		if s < a.Stages-1 {
			skips[s+1] = db
		} else {
			b.Free(db)
		}
	}

	for s := 0; s < a.Stages; s++ {
		stage("ddnet/dec", s)
		last := s == a.Stages-1
		skipC, outC := blockOut, f
		if last { // the stem is the shallowest skip; the head emits the image
			skipC, outC = f, 1
		}
		b.Reserve(f+skipC, a.Kernel)
		up := b.Unpool(h)
		b.Free(h)
		var pair [MaxFanIn]T
		pair[0], pair[1] = up, skips[a.Stages-1-s]
		cat := b.Concat(pair, 2)
		b.Free(pair[0])
		b.Free(pair[1])
		da := b.Conv(next(Layer{InC: f + skipC, OutC: 2 * f, K: a.Kernel, Deconv: true, BNAct: true}), cat)
		b.Free(cat)
		h = b.Conv(next(Layer{InC: 2 * f, OutC: outC, K: 1, Deconv: true, BNAct: !last}), da)
		b.Free(da)
	}
	ssp.End()
	return h
}

// Dims is a CHW activation extent, the T of the trace backend.
type Dims struct{ C, H, W int }

// Len returns the element count.
func (d Dims) Len() int { return d.C * d.H * d.W }

// OpKind tags one traced operation.
type OpKind int

// Operations the walk performs (concats move data but have no row in
// Table 2 and no counter in Table 6, so they are not traced).
const (
	OpConv OpKind = iota
	OpBNAct
	OpPool
	OpUnpool
)

// Op is one operation of the walk with its input and output extents.
type Op struct {
	Kind    OpKind
	Layer   Layer // zero for OpPool and OpUnpool
	In, Out Dims
}

type tracer struct{ ops []Op }

func (t *tracer) emit(k OpKind, l Layer, in, out Dims) Dims {
	t.ops = append(t.ops, Op{Kind: k, Layer: l, In: in, Out: out})
	return out
}

func (t *tracer) Free(Dims)        {}
func (t *tracer) Reserve(int, int) {}

func (t *tracer) Conv(l Layer, x Dims) Dims {
	if x.C != l.InC {
		panic("kernels: walk channel arithmetic disagrees with the traced activation")
	}
	return t.emit(OpConv, l, x, Dims{l.OutC, x.H, x.W})
}

func (t *tracer) BNAct(l Layer, x Dims) Dims { return t.emit(OpBNAct, l, x, x) }

func (t *tracer) Pool(x Dims) Dims { return t.emit(OpPool, Layer{}, x, Dims{x.C, x.H / 2, x.W / 2}) }

func (t *tracer) Unpool(x Dims) Dims {
	return t.emit(OpUnpool, Layer{}, x, Dims{x.C, 2 * x.H, 2 * x.W})
}

func (t *tracer) Concat(vs [MaxFanIn]Dims, n int) Dims {
	out := vs[0]
	for _, v := range vs[1:n] {
		out = out.join(v)
	}
	return out
}

// join is the extent of d and o concatenated along channels; it panics
// unless they have the same H×W.
func (d Dims) join(o Dims) Dims {
	if o.H != d.H || o.W != d.W {
		panic(fmt.Sprintf("kernels: walk concatenates a %d×%d map with a %d×%d one", d.H, d.W, o.H, o.W))
	}
	return Dims{d.C + o.C, d.H, d.W}
}

// checkSize panics unless h and w are positive multiples of
// 2^a.Stages: the only inputs whose every un-pooled map has the size
// of the skip it is concatenated with.
func (a Arch) checkSize(h, w int) {
	if m := 1 << max(a.Stages, 0); h <= 0 || w <= 0 || h%m != 0 || w%m != 0 {
		panic(fmt.Sprintf("kernels: a %d×%d input is not divisible by 2^Stages = %d", h, w, m))
	}
}

// Trace walks the architecture on a 1×h×w input and returns every
// operation with its extents — the shape/count backend behind Table 2
// (ddnet.LayerShapes), Table 6 (DDnetCounts) and network construction
// (Layers).
func Trace(a Arch, h, w int) []Op {
	a.checkSize(h, w)
	var t tracer
	Walk[Dims](a, &t, Dims{1, h, w}, nil)
	return t.ops
}

// Layers returns the parameter-bearing layers in walk order, so
// Layers(a)[i].Index == i.
func Layers(a Arch) []Layer {
	var ls []Layer
	for _, op := range Trace(a, 1<<a.Stages, 1<<a.Stages) {
		if op.Kind == OpConv || op.Kind == OpBNAct {
			ls = append(ls, op.Layer)
		}
	}
	return ls
}
