package kernels

import (
	"math/rand"
	"time"
)

// Timing is the per-kernel-class wall time of one DDnet inference, the
// split Table 5 reports.
type Timing struct {
	Conv, Deconv, Other time.Duration
}

// Total returns the end-to-end inference time.
func (t Timing) Total() time.Duration { return t.Conv + t.Deconv + t.Other }

// Add accumulates o into t.
func (t *Timing) Add(o Timing) {
	t.Conv += o.Conv
	t.Deconv += o.Deconv
	t.Other += o.Other
}

// RunDDnet executes the full DDnet inference kernel sequence (Walk
// driven by the timing backend) on a size×size image with Variant v's
// kernels, and returns the measured per-class wall time. This is the
// CPU "OpenCL runtime" measurement feeding Tables 4, 5 and 7; weights
// are random, as only the data movement and arithmetic are being
// measured. Every layer runs unfused, as the paper's kernels do: each
// convolution is followed by separate BatchNorm and LeakyReLU passes.
func RunDDnet(cfg Arch, size int, v Variant, workers int, rng *rand.Rand) Timing {
	cfg.checkSize(size, size)
	r := &timer{v: v, workers: workers, rng: rng}
	Walk[timedBuf](cfg, r, timedBuf{r.rand(size * size), Dims{1, size, size}}, nil)
	return r.t
}

// timedBuf is a CHW activation of the timing backend.
type timedBuf struct {
	d []float32
	Dims
}

// timer is the timing backend: it allocates random-weight buffers per
// layer and charges each kernel call to its Table 5 class.
type timer struct {
	v       Variant
	workers int
	rng     *rand.Rand
	t       Timing
}

func (r *timer) rand(n int) []float32 {
	b := make([]float32, n)
	for i := range b {
		b[i] = r.rng.Float32() - 0.5
	}
	return b
}

func (r *timer) buf(d Dims) timedBuf { return timedBuf{make([]float32, d.Len()), d} }

func (r *timer) time(class *time.Duration, fn func()) {
	start := time.Now()
	fn()
	*class += time.Since(start)
}

func (r *timer) Free(timedBuf) {}

// bnAct is the BatchNorm and LeakyReLU passes over x, in place.
func (r *timer) bnAct(x timedBuf) {
	gamma, beta, mean := r.rand(x.C), r.rand(x.C), r.rand(x.C)
	variance := make([]float32, x.C)
	for i := range variance {
		variance[i] = 1 + r.rng.Float32()
	}
	r.time(&r.t.Other, func() {
		BatchNormInfer(x.d, x.d, x.C, x.H*x.W, gamma, beta, mean, variance, 1e-5, r.workers)
		LeakyReLU(x.d, 0.01, r.workers)
	})
}

func (r *timer) Conv(l Layer, x timedBuf) timedBuf {
	s := ConvShape{InC: l.InC, H: x.H, W: x.W, OutC: l.OutC, K: l.K}
	w := r.rand(s.WeightLen())
	out := r.buf(Dims{l.OutC, x.H, x.W})
	class, kernel := &r.t.Conv, r.v.Conv
	if l.Deconv {
		class, kernel = &r.t.Deconv, r.v.Deconv
	}
	r.time(class, func() { kernel(x.d, w, out.d, s, r.workers) })
	if l.BNAct {
		r.bnAct(out)
	}
	return out
}

func (r *timer) BNAct(_ Layer, x timedBuf) timedBuf {
	out := timedBuf{append([]float32(nil), x.d...), x.Dims}
	r.bnAct(out)
	return out
}

func (r *timer) Pool(x timedBuf) timedBuf {
	out := r.buf(Dims{x.C, x.H / 2, x.W / 2})
	s := PoolShape{C: x.C, H: x.H, W: x.W, K: 3, S: 2, P: 1}
	r.time(&r.t.Other, func() { MaxPool(x.d, out.d, nil, s, r.workers) })
	return out
}

// Unpool builds the bilinear tables outside the timed region, as a warm
// decoder finds them cached.
func (r *timer) Unpool(x timedBuf) timedBuf {
	out := r.buf(Dims{x.C, 2 * x.H, 2 * x.W})
	ty, tx := NewBilinearTable(x.H, out.H), NewBilinearTable(x.W, out.W)
	r.time(&r.t.Other, func() { Upsample(x.d, out.d, x.C, x.H, x.W, ty, tx, r.workers) })
	return out
}

func (r *timer) Concat(vs [MaxFanIn]timedBuf, n int) timedBuf {
	out := timedBuf{Dims: vs[0].Dims}
	for _, v := range vs[1:n] {
		out.Dims = out.join(v.Dims)
	}
	out.d = make([]float32, 0, out.Len())
	r.time(&r.t.Other, func() {
		for _, v := range vs[:n] {
			out.d = append(out.d, v.d...)
		}
	})
	return out
}
