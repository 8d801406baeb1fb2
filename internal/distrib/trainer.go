package distrib

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"computecovid19/internal/ag"
	"computecovid19/internal/nn"
	"computecovid19/internal/obs"
	"computecovid19/internal/tensor"
)

// Per-step training telemetry: the loss and (post-all-reduce) gradient
// norm a training dashboard would plot, plus a step counter. The grad
// norm is O(parameters) to compute, so it is derived only while span
// collection is enabled.
var (
	stepsTotal   = obs.GetCounter("distrib_steps_total")
	stepLossG    = obs.GetGauge("distrib_step_loss")
	gradNormG    = obs.GetGauge("distrib_grad_norm")
	stepSecondsH = obs.GetHistogram("distrib_step_seconds", nil)

	// Straggler detection: rankSecondsH exports every rank's per-step
	// compute time; a rank whose current step exceeds StragglerFactor ×
	// the trainer's own pooled p99 raises the warning counter and gauge —
	// the operator sees the slow rank long before a timeout would force
	// recovery.
	rankSecondsH       = obs.GetHistogram("distrib_rank_step_seconds", nil)
	stragglerWarnings  = obs.GetCounter("distrib_straggler_warnings_total")
	stragglerRankG     = obs.GetGauge("distrib_straggler_rank")
	groupSizeG         = obs.GetGauge("distrib_group_size")
	rankRemovedCounter = obs.GetCounter("distrib_ranks_removed_total")
)

// stragglerWarmup is how many pooled rank timings must exist before the
// p99 comparison is meaningful.
const stragglerWarmup = 32

// Model is what the data-parallel trainer needs from a network.
type Model interface {
	Params() []*ag.Value
	SetTraining(train bool)
}

// LossFunc builds the scalar training loss of model m on a mini-batch.
// It must construct the graph through m's parameters so Backward reaches
// them.
type LossFunc func(m Model, xs, ys []*tensor.Tensor) *ag.Value

// Trainer runs synchronous data-parallel SGD in the DistributedDataParallel
// style: every node holds a full replica, gradients are ring-all-reduced
// each step, and identical optimizer states keep the replicas in
// lockstep (§4.1: "forward propagation is executed independently, while
// the gradients are synchronized during back propagation").
type Trainer struct {
	Nodes    int
	replicas []Model
	opts     []*nn.Adam
	loss     LossFunc

	// ft, when non-nil, routes collectives through the resilient
	// checksummed transport and enables fault handling in TryStep.
	ft *RingOptions
	// StragglerFactor scales the pooled p99 threshold; <= 0 means 2.
	StragglerFactor float64

	step     uint64
	perRankH []*obs.Histogram
	// pooled is this trainer's own timing baseline for straggler
	// detection; the registry-level distrib_rank_step_seconds histogram
	// still receives every observation for dashboards, but thresholding
	// on it would let unrelated trainers (or earlier runs in the same
	// process) skew the p99.
	pooled *obs.Histogram
}

// NewTrainer builds a trainer with `nodes` replicas. factory must be
// deterministic: every invocation returns a model with identical initial
// parameters (use a fixed seed inside).
func NewTrainer(factory func() Model, nodes int, lr float64, loss LossFunc) *Trainer {
	if nodes < 1 {
		panic("distrib: need at least one node")
	}
	t := &Trainer{Nodes: nodes, loss: loss, pooled: obs.NewHistogram(nil)}
	for i := 0; i < nodes; i++ {
		m := factory()
		m.SetTraining(true)
		t.replicas = append(t.replicas, m)
		t.opts = append(t.opts, nn.NewAdam(m.Params(), lr))
		t.perRankH = append(t.perRankH,
			obs.GetHistogram(fmt.Sprintf("distrib_rank_step_seconds{rank=%q}", fmt.Sprint(i)), nil))
	}
	groupSizeG.Set(float64(nodes))
	// Verify the factory is deterministic — silent divergence here would
	// invalidate every result built on the trainer.
	if nodes > 1 {
		p0, p1 := t.replicas[0].Params(), t.replicas[1].Params()
		for i := range p0 {
			if !p0[i].T.AllClose(p1[i].T, 0) {
				panic(fmt.Sprintf("distrib: factory is not deterministic (param %d differs)", i))
			}
		}
	}
	return t
}

// Master returns replica 0, whose parameters equal every other
// replica's.
func (t *Trainer) Master() Model { return t.replicas[0] }

// GlobalStep reports how many optimizer steps have been applied (it is
// restored by checkpoints).
func (t *Trainer) GlobalStep() uint64 { return t.step }

// EnableFaultTolerance routes gradient synchronization through the
// checksummed, timeout-guarded ring with the given options. TryStep
// then surfaces *DeadRankError instead of hanging on a crashed rank.
func (t *Trainer) EnableFaultTolerance(opt RingOptions) {
	o := opt.withDefaults()
	t.ft = &o
}

// FaultPlan returns the injected fault plan, if fault tolerance is
// enabled with one.
func (t *Trainer) FaultPlan() *FaultPlan {
	if t.ft == nil {
		return nil
	}
	return t.ft.Faults
}

// SetLR updates the learning rate on every node's optimizer.
func (t *Trainer) SetLR(lr float64) {
	for _, o := range t.opts {
		o.SetLR(lr)
	}
}

// LR reports the current learning rate.
func (t *Trainer) LR() float64 { return t.opts[0].LR() }

// Step performs one synchronous data-parallel step, panicking on
// transport failure (only possible with fault tolerance enabled — use
// TryStep there).
func (t *Trainer) Step(xs, ys []*tensor.Tensor) float64 {
	loss, err := t.TryStep(xs, ys)
	if err != nil {
		panic(fmt.Sprintf("distrib: Step failed (use TryStep with fault tolerance): %v", err))
	}
	return loss
}

// TryStep performs one synchronous data-parallel step on a global batch:
// shard across nodes, backward per node in parallel, all-reduce the
// gradients, identical optimizer step everywhere. Returns the global
// mean loss. Nodes with an empty shard (global batch smaller than the
// node count) contribute zero gradients, as DDP's join semantics do.
//
// With fault tolerance enabled, a confirmed-dead rank returns a
// *DeadRankError and the trainer's state must be considered
// inconsistent: re-form the group (RemoveRanks) and Restore the last
// checkpoint before stepping again. RunElastic automates that loop.
func (t *Trainer) TryStep(xs, ys []*tensor.Tensor) (float64, error) {
	return t.TryStepCtx(context.Background(), xs, ys)
}

// TryStepCtx is TryStep continuing the context's trace: the step span
// nests under the caller's active span, and per-rank compute plus the
// gradient all-reduce get child spans — stragglers show up in traces,
// not just in the rank-seconds histograms.
func (t *Trainer) TryStepCtx(ctx context.Context, xs, ys []*tensor.Tensor) (float64, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		panic("distrib: Step needs equally many inputs and targets")
	}
	_, sp := obs.StartCtx(ctx, "distrib/step")
	defer sp.End()
	if sp != nil {
		sp.SetAttr("nodes", t.Nodes)
		sp.SetAttr("global_batch", len(xs))
	}
	var plan *FaultPlan
	if t.ft != nil {
		plan = t.ft.Faults
	}
	plan.BeginStep(t.step)

	stepStart := time.Now()
	global := len(xs)

	losses := make([]float64, t.Nodes)
	rankDur := make([]time.Duration, t.Nodes)
	var wg sync.WaitGroup
	for node := 0; node < t.Nodes; node++ {
		lo := node * global / t.Nodes
		hi := (node + 1) * global / t.Nodes
		wg.Add(1)
		go func(node, lo, hi int) {
			defer wg.Done()
			rsp := sp.Child("distrib/rank")
			if rsp != nil {
				rsp.SetAttr("rank", node)
				rsp.SetAttr("shard", hi-lo)
			}
			t0 := time.Now()
			defer func() {
				d := time.Since(t0)
				rankDur[node] = d
				rankSecondsH.Observe(d.Seconds())
				if node < len(t.perRankH) {
					t.perRankH[node].Observe(d.Seconds())
				}
				rsp.End()
			}()
			m := t.replicas[node]
			for _, p := range m.Params() {
				p.ZeroGrad()
			}
			if plan.Crashed(node) || lo == hi {
				// Dead rank or empty shard: keep gradients allocated so a
				// (possibly partial) all-reduce stays aligned.
				for _, p := range m.Params() {
					p.Grad = tensor.New(p.T.Shape...)
				}
				return
			}
			if d := plan.computeDelay(node); d > 0 {
				time.Sleep(d) // injected straggler
			}
			loss := t.loss(m, xs[lo:hi], ys[lo:hi])
			// Scale so the all-reduced mean over nodes equals the global
			// batch mean: shardMean · shardSize · nodes / global.
			scaled := ag.MulConst(loss, float32(hi-lo)*float32(t.Nodes)/float32(global))
			scaled.Backward()
			losses[node] = float64(loss.Scalar()) * float64(hi-lo)
		}(node, lo, hi)
	}
	wg.Wait()
	t.checkStragglers(rankDur)

	// Gradient synchronization: one all-reduce per parameter tensor, as
	// gloo buckets do. One collective span covers the whole sweep; its
	// byte count is the step's wire traffic.
	arSp := sp.Child("distrib/allreduce")
	params0 := t.replicas[0].Params()
	gradBytes := 0
	for pi := range params0 {
		vecs := make([][]float32, t.Nodes)
		for node := 0; node < t.Nodes; node++ {
			vecs[node] = t.replicas[node].Params()[pi].Grad.Data
		}
		gradBytes += 4 * len(vecs[0]) * t.Nodes
		if t.ft != nil {
			if err := ResilientAllReduceMean(vecs, *t.ft); err != nil {
				if arSp != nil {
					arSp.SetAttr("error", err.Error())
				}
				arSp.End()
				return 0, err
			}
		} else {
			AllReduceMean(vecs)
		}
	}
	if arSp != nil {
		arSp.SetAttr("params", len(params0))
		arSp.SetAttr("bytes", gradBytes)
	}
	arSp.End()

	for _, o := range t.opts {
		o.Step()
	}

	total := 0.0
	for _, l := range losses {
		total += l
	}
	mean := total / float64(global)

	stepsTotal.Inc()
	stepLossG.Set(mean)
	stepSecondsH.Observe(time.Since(stepStart).Seconds())
	if obs.Enabled() {
		// All replicas hold identical averaged gradients here, so the
		// master's norm is the global norm.
		var sq float64
		for _, p := range params0 {
			for _, g := range p.Grad.Data {
				sq += float64(g) * float64(g)
			}
		}
		gradNormG.Set(math.Sqrt(sq))
	}
	t.step++
	return mean, nil
}

// checkStragglers compares each rank's compute time against the
// trainer's historical pooled p99 and raises the warning metric for
// outliers — the early signal that precedes (and often predicts) a
// timeout-driven recovery. The current step's durations are folded into
// the baseline only after the comparison, so a single slow step cannot
// raise the threshold above itself.
func (t *Trainer) checkStragglers(rankDur []time.Duration) {
	defer func() {
		for _, d := range rankDur {
			t.pooled.Observe(d.Seconds())
		}
	}()
	if t.Nodes < 2 || t.pooled.Count() < stragglerWarmup {
		return
	}
	factor := t.StragglerFactor
	if factor <= 0 {
		factor = 2
	}
	threshold := factor * t.pooled.Quantile(0.99)
	if threshold <= 0 {
		return
	}
	for rank, d := range rankDur {
		if d.Seconds() > threshold {
			stragglerWarnings.Inc()
			stragglerRankG.Set(float64(rank))
		}
	}
}

// RemoveRanks re-forms the group without the given (ascending) ranks:
// their replicas and optimizer states are dropped, surviving ranks are
// renumbered densely, and subsequent steps re-shard the global batch
// over the smaller group. The fault plan (if any) is remapped to the
// new numbering.
func (t *Trainer) RemoveRanks(ranks []int) error {
	if len(ranks) == 0 {
		return nil
	}
	drop := map[int]bool{}
	for _, r := range ranks {
		if r < 0 || r >= t.Nodes {
			return fmt.Errorf("distrib: RemoveRanks: rank %d out of range (group size %d)", r, t.Nodes)
		}
		drop[r] = true
	}
	if len(drop) >= t.Nodes {
		return fmt.Errorf("distrib: RemoveRanks would leave an empty group")
	}
	var replicas []Model
	var opts []*nn.Adam
	for i := 0; i < t.Nodes; i++ {
		if drop[i] {
			continue
		}
		replicas = append(replicas, t.replicas[i])
		opts = append(opts, t.opts[i])
	}
	t.replicas, t.opts = replicas, opts
	t.Nodes = len(replicas)
	rankRemovedCounter.Add(uint64(len(drop)))
	groupSizeG.Set(float64(t.Nodes))
	if t.ft != nil {
		t.ft.Faults.RemoveRanks(ranks)
	}
	return nil
}

// InSync reports whether all replicas hold identical parameters (used by
// tests and assertions; any drift means broken synchronization).
func (t *Trainer) InSync(tol float64) bool {
	p0 := t.replicas[0].Params()
	for node := 1; node < t.Nodes; node++ {
		pn := t.replicas[node].Params()
		for i := range p0 {
			if !p0[i].T.AllClose(pn[i].T, tol) {
				return false
			}
		}
	}
	return true
}
