package classify

import (
	"sync"

	"computecovid19/internal/ag"
	"computecovid19/internal/memplan"
	"computecovid19/internal/tensor"
	"computecovid19/internal/volume"
)

// pooled is the tape-free inference backend of walk: every activation
// comes from a memplan.Scope and goes back the moment its last reader
// has run. walk reaches its backend through an interface, so a
// per-forward value would escape to the heap; backends are recycled
// through plannedPool instead (a *planned carries a pooled).
type pooled struct {
	units []unit
	sc    *memplan.Scope
}

var plannedPool = sync.Pool{New: func() any { return new(planned) }}

// apply runs the convolution, then BN and ReLU — in place on the fresh
// BN output, which has no other reader (ReLU is LeakyReLU with slope 0,
// matching ag.ReLU bit for bit).
func (p *pooled) apply(l layer, x *tensor.Tensor) *tensor.Tensor {
	u := p.units[l.index]
	if l.k > 0 {
		x = u.conv.Infer(p.sc, x)
	}
	if !l.bnAct {
		return x
	}
	y := u.bn.Infer(p.sc, x)
	if l.k > 0 {
		p.sc.Free(x)
	}
	ag.EvalLeakyReLUInPlace(y, 0)
	return y
}

func (p *pooled) pool(x *tensor.Tensor) *tensor.Tensor {
	return ag.EvalMaxPool3D(p.sc, x, ag.Pool2DConfig{Kernel: 2, Stride: 2})
}

func (p *pooled) concat(vs [maxFanIn]*tensor.Tensor, n int) *tensor.Tensor {
	return ag.EvalConcat(p.sc, 1, vs[:n])
}

func (p *pooled) free(x *tensor.Tensor) { p.sc.Free(x) }

// PredictPooled is Predict without a tape: every activation comes from
// mem, so a warm arena makes classification a
// zero-steady-state-allocation operation. The volume's storage is
// aliased read-only (never pooled). A warmed classifier runs its
// compiled plan (plan.go), within TestPlanMatchesPooled's budget of the
// pooled backend; otherwise the pooled backend runs, bit-identical to
// Predict (TestPredictPooledBitIdentical).
func (c *Classifier) PredictPooled(mem *memplan.Arena, v *volume.Volume) float64 {
	c.SetTraining(false)
	sc := mem.NewScope()
	p := plannedPool.Get().(*planned)
	*p = planned{pooled: pooled{units: c.units, sc: sc}}
	var b backend[*tensor.Tensor] = &p.pooled
	if pl := c.plan.Load(); pl != nil {
		p.plan, b = *pl, p
	}
	h := walk(c.Cfg, b, sc.View(v.Data, 1, 1, v.D, v.H, v.W))
	*p = planned{}
	plannedPool.Put(p)
	feats := ag.EvalGlobalAvgPool3D(sc, h)
	sc.Free(h)
	logit := c.fc.Infer(sc, feats)
	prob := float64(ag.EvalSigmoid(logit.Data[0]))
	sc.Close()
	return prob
}
