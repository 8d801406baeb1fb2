// Package core assembles the ComputeCOVID19+ framework of Figure 3: the
// green-arrow workflow Enhancement AI → Segmentation AI → Classification
// AI over a 3D chest CT volume, plus the training loops for the two
// learned stages. This is the orchestration layer a clinician-facing
// deployment would call.
package core

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"computecovid19/internal/ag"
	"computecovid19/internal/classify"
	"computecovid19/internal/ctsim"
	"computecovid19/internal/dataset"
	"computecovid19/internal/ddnet"
	"computecovid19/internal/memplan"
	"computecovid19/internal/metrics"
	"computecovid19/internal/nn"
	"computecovid19/internal/obs"
	"computecovid19/internal/segment"
	"computecovid19/internal/tensor"
	"computecovid19/internal/volume"
)

// Telemetry: per-scan latency (the number a clinician-facing deployment
// watches) and per-stage latencies for the enhance → segment → classify
// split of Figure 4. Metric handles are atomics; span collection costs
// ~3 ns per site while disabled (see internal/obs).
var (
	scanSeconds          = obs.GetHistogram("pipeline_scan_seconds", nil)
	scansTotal           = obs.GetCounter("pipeline_scans_total")
	stageEnhanceSeconds  = stageHistogram("enhance")
	stageSegmentSeconds  = stageHistogram("segment")
	stageClassifySeconds = stageHistogram("classify")
	trainStepSeconds     = obs.GetHistogram("train_step_seconds", nil)
	trainStepLoss        = obs.GetGauge("train_step_loss")
)

// stageHistogram returns the per-stage latency histogram. All three
// stages share the pipeline_stage_seconds metric family, distinguished
// only by the stage label.
func stageHistogram(stage string) *obs.Histogram {
	return obs.GetHistogram(`pipeline_stage_seconds{stage="`+stage+`"}`, nil)
}

// Pipeline is a configured ComputeCOVID19+ instance.
type Pipeline struct {
	// Enhancer is Enhancement AI; nil skips enhancement (the grey-arrow
	// ablation path of Figure 13).
	Enhancer *ddnet.DDnet
	// SegOpts configures Segmentation AI.
	SegOpts segment.Options
	// Classifier is Classification AI.
	Classifier *classify.Classifier
	// Threshold is the probability cutoff for a positive call (the
	// paper's Table 9 uses 0.061, chosen on validation data).
	Threshold float64
	// WindowLo and WindowHi are the HU normalization window.
	WindowLo, WindowHi float64

	// Pooled inference memory (see internal/memplan): the tensor arena
	// shared by every stage, a free list of per-scan scratch bundles,
	// and a free list of output volumes fed by RecycleVolume. All three
	// are lazy; the zero value works.
	memOnce   sync.Once
	mem       *memplan.Arena
	scratchMu sync.Mutex
	scratch   []*scanScratch
	volMu     sync.Mutex
	vols      []*volume.Volume
}

// Arena returns the pipeline's tensor arena, creating it on first use.
// Every pooled buffer the pipeline hands out (Result.LungMask included)
// belongs to this arena.
func (p *Pipeline) Arena() *memplan.Arena {
	p.memOnce.Do(func() { p.mem = memplan.New() })
	return p.mem
}

// NewPipeline returns a pipeline with default segmentation options, the
// full HU window, and threshold 0.5.
func NewPipeline(enh *ddnet.DDnet, cls *classify.Classifier) *Pipeline {
	return &Pipeline{
		Enhancer:   enh,
		SegOpts:    segment.DefaultOptions(),
		Classifier: cls,
		Threshold:  0.5,
		WindowLo:   ctsim.FullWindowLo,
		WindowHi:   ctsim.FullWindowHi,
	}
}

// Result is the outcome of running the pipeline on one scan.
type Result struct {
	// Probability is Classification AI's COVID-positive probability.
	Probability float64
	// Positive applies the pipeline threshold.
	Positive bool
	// Enhanced is the post-Enhancement-AI volume in HU (the input volume
	// when enhancement is disabled).
	Enhanced *volume.Volume
	// LungMask is Segmentation AI's binary map.
	LungMask []bool
}

// Enhance runs Enhancement AI slice by slice over an HU volume and
// returns the enhanced HU volume. With no enhancer it returns the input
// unchanged.
func (p *Pipeline) Enhance(v *volume.Volume) *volume.Volume {
	return p.enhance(v, obs.Start("core/enhance"))
}

// enhance is Enhance under a caller-provided span (nil = untraced).
func (p *Pipeline) enhance(v *volume.Volume, sp *obs.Span) *volume.Volume {
	start := time.Now()
	defer func() {
		stageEnhanceSeconds.Observe(time.Since(start).Seconds())
		sp.End()
	}()
	sp.SetAttr("slices", v.D)
	if p.Enhancer == nil {
		return v
	}
	// The forward passes run against the pipeline arena but root their
	// own traces, exactly as the pre-pooled per-slice Enhance calls did;
	// EnhanceInto is the variant that threads the caller's trace through.
	out := p.GetVolume(v.D, v.H, v.W)
	p.enhanceSlices(context.Background(), v, out)
	return out
}

// Diagnose runs the full workflow of Figure 4 on an HU volume:
// enhancement, lung segmentation, masking, classification.
func (p *Pipeline) Diagnose(v *volume.Volume) Result {
	return p.DiagnoseCtx(context.Background(), v)
}

// DiagnoseCtx is Diagnose continuing the context's trace: the
// core/diagnose span (and the stage spans under it) nests under the
// caller's active span instead of rooting a fresh trace.
func (p *Pipeline) DiagnoseCtx(ctx context.Context, v *volume.Volume) Result {
	_, sp := obs.StartCtx(ctx, "core/diagnose")
	start := time.Now()

	enhanced := p.enhance(v, sp.Child("core/enhance"))
	r := p.classifyEnhanced(enhanced, sp)

	scanSeconds.Observe(time.Since(start).Seconds())
	scansTotal.Inc()
	sp.End()
	return r
}

// Classify runs the tail of Diagnose — segmentation, masking,
// classification — on an already-enhanced HU volume. It exists for
// serving paths that enhance volumes out of band (internal/serve batches
// enhancement across concurrent scans) and counts as a completed scan in
// the pipeline metrics. On a warm pipeline (see Warm) it is safe for
// concurrent use.
func (p *Pipeline) Classify(enhanced *volume.Volume) Result {
	return p.ClassifyCtx(context.Background(), enhanced)
}

// ClassifyCtx is Classify continuing the context's trace, so a serving
// request's trace covers segmentation and classification.
func (p *Pipeline) ClassifyCtx(ctx context.Context, enhanced *volume.Volume) Result {
	_, sp := obs.StartCtx(ctx, "core/diagnose")
	start := time.Now()
	r := p.classifyEnhanced(enhanced, sp)
	scanSeconds.Observe(time.Since(start).Seconds())
	scansTotal.Inc()
	sp.End()
	return r
}

// classifyEnhanced is the shared segmentation + classification tail. It
// runs entirely from pooled memory — the lung mask comes from the
// pipeline arena (hand it back with RecycleResult) and the masked,
// windowed classifier input lives in reusable scan scratch. Its mask is
// bit-identical to segment.Apply's, and its probability, on a warm
// pipeline's compiled classifier plan, within 1e-6 of
// Volume.Normalized + Predict (TestClassifyPooledBitIdentical).
func (p *Pipeline) classifyEnhanced(enhanced *volume.Volume, sp *obs.Span) Result {
	s := p.getScratch()

	segSp := sp.Child("core/segment")
	segStart := time.Now()
	mask := p.Arena().GetBools(len(enhanced.Data))
	s.seg.LungsInto(enhanced, p.SegOpts, mask)
	stageSegmentSeconds.Observe(time.Since(segStart).Seconds())
	segSp.End()

	clsSp := sp.Child("core/classify")
	clsStart := time.Now()
	s.ensureVolume(enhanced.D, enhanced.H, enhanced.W)
	// Fused mask + window: ApplyMask zeroes non-lung voxels before
	// Normalized windows them, so a masked-out voxel windows to the
	// constant NormalizeHU(0).
	maskedOut := float32(ctsim.NormalizeHU(0, p.WindowLo, p.WindowHi))
	norm := s.norm.Data
	for i, hu := range enhanced.Data {
		if mask[i] {
			norm[i] = float32(ctsim.NormalizeHU(float64(hu), p.WindowLo, p.WindowHi))
		} else {
			norm[i] = maskedOut
		}
	}
	prob := p.Classifier.PredictPooled(p.Arena(), s.norm)
	stageClassifySeconds.Observe(time.Since(clsStart).Seconds())
	clsSp.End()

	p.putScratch(s)
	return Result{
		Probability: prob,
		Positive:    prob >= p.Threshold,
		Enhanced:    enhanced,
		LungMask:    mask,
	}
}

// Warm prepares the pipeline for concurrent inference: both learned
// stages are switched to eval mode once, up front, so hot-path calls
// (Enhance, Classify, Diagnose, Predict) perform no writes to shared
// model state. nn.BatchNorm.SetTraining skips redundant writes, so after
// Warm the per-call SetTraining(false) in ddnet.Enhance and
// classify.Predict is a pure read — worker pools may share one set of
// weights without racing. Warming also compiles both networks' fused
// execution plans (BN folding, weight packing — ddnet.Warm and
// classify.Warm) up front, which the first eval forward would otherwise
// do. Serving replicas must call Warm before going concurrent.
func (p *Pipeline) Warm() {
	if p.Enhancer != nil {
		p.Enhancer.Warm()
	}
	if p.Classifier != nil {
		p.Classifier.Warm()
	}
}

// Score runs Diagnose over a cohort and returns probabilities and
// labels, ready for metrics.ROC / metrics.AUC.
func (p *Pipeline) Score(cases []dataset.Case) (probs []float64, labels []bool) {
	for _, c := range cases {
		r := p.Diagnose(c.Volume)
		probs = append(probs, r.Probability)
		labels = append(labels, c.Label)
	}
	return
}

// EnhancerTrainingConfig configures TrainEnhancer with the paper's
// §3.1.1 hyper-parameters as defaults (Adam, lr 1e-4 decayed ×0.8 per
// epoch, batch 1, composite MSE + 0.1(1−MS-SSIM) loss).
type EnhancerTrainingConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	LRDecay   float64
	Seed      int64
}

// DefaultEnhancerTraining returns settings scaled for demo-size images
// and epoch counts: a larger learning rate and slower decay than the
// paper's literal §3.1.1 hyper-parameters — Adam at 1e-4 decayed ×0.8
// per epoch, batch 1, 50 epochs — which assume 5102 images per epoch
// rather than a handful.
func DefaultEnhancerTraining() EnhancerTrainingConfig {
	return EnhancerTrainingConfig{Epochs: 8, BatchSize: 1, LR: 3e-3, LRDecay: 0.95, Seed: 7}
}

// TrainEnhancer trains a DDnet on clean/low-dose pairs and returns the
// per-epoch mean training loss (Figure 11a's curve).
func TrainEnhancer(m *ddnet.DDnet, pairs []dataset.EnhancementPair, cfg EnhancerTrainingConfig) []float64 {
	tsp := obs.Start("core/train_enhancer")
	tsp.SetAttr("epochs", cfg.Epochs)
	tsp.SetAttr("pairs", len(pairs))
	defer tsp.End()
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := nn.NewAdam(m.Params(), cfg.LR)
	sched := nn.NewExponentialLR(opt, cfg.LRDecay)
	m.SetTraining(true)

	size := pairs[0].Clean.Shape[0]
	var curve []float64
	order := make([]int, len(pairs))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss := 0.0
		steps := 0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			b := end - start
			x := tensor.New(b, 1, size, size)
			y := tensor.New(b, 1, size, size)
			for bi, idx := range order[start:end] {
				copy(x.Data[bi*size*size:(bi+1)*size*size], pairs[idx].LowDose.Data)
				copy(y.Data[bi*size*size:(bi+1)*size*size], pairs[idx].Clean.Data)
			}
			stepStart := time.Now()
			opt.ZeroGrad()
			loss := ddnet.Loss(m.Forward(ag.Const(x)), ag.Const(y))
			loss.Backward()
			opt.Step()
			trainStepSeconds.Observe(time.Since(stepStart).Seconds())
			trainStepLoss.Set(float64(loss.Scalar()))
			epochLoss += float64(loss.Scalar())
			steps++
		}
		curve = append(curve, epochLoss/float64(steps))
		sched.StepEpoch()
	}
	m.SetTraining(false)
	return curve
}

// EvaluateEnhancer computes the paper's Table 8 numbers over pairs:
// MSE and MS-SSIM of (Y, X) — target vs low-dose — and of (Y, f(X)) —
// target vs enhanced.
func EvaluateEnhancer(m *ddnet.DDnet, pairs []dataset.EnhancementPair) (mseYX, msssimYX, mseYFX, msssimYFX float64) {
	m.SetTraining(false)
	n := float64(len(pairs))
	for _, p := range pairs {
		enh := m.Enhance(p.LowDose)
		mseYX += metrics.MSE(p.Clean, p.LowDose) / n
		mseYFX += metrics.MSE(p.Clean, enh) / n
		msssimYX += metrics.MSSSIM(p.Clean, p.LowDose) / n
		msssimYFX += metrics.MSSSIM(p.Clean, enh) / n
	}
	return
}

// ClassifierTrainingConfig configures TrainClassifier. The paper uses
// Adam with lr 1e-6 on full-size volumes (§3.3.1); small synthetic
// volumes tolerate a larger rate.
type ClassifierTrainingConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Augment   bool
	Seed      int64
	// PreEnhance runs each training volume through this pipeline's
	// enhancement + segmentation before training, matching how the
	// volume will be presented at inference.
	PreEnhance *Pipeline
}

// DefaultClassifierTraining returns demo-scale settings.
func DefaultClassifierTraining() ClassifierTrainingConfig {
	return ClassifierTrainingConfig{Epochs: 6, BatchSize: 4, LR: 3e-3, Augment: true, Seed: 8}
}

// PrepareClassifierInput converts a raw HU case volume into the tensor
// the classifier consumes, optionally routing it through enhancement and
// segmentation.
func PrepareClassifierInput(p *Pipeline, v *volume.Volume) *tensor.Tensor {
	work := v
	var opts segment.Options
	if p != nil {
		work = p.Enhance(v)
		opts = p.SegOpts
	} else {
		opts = segment.DefaultOptions()
	}
	masked, _ := segment.Apply(work, opts)
	norm := masked.Normalized(ctsim.FullWindowLo, ctsim.FullWindowHi)
	return tensor.FromSlice(norm.Data, 1, 1, v.D, v.H, v.W)
}

// TrainClassifier trains the classifier on a cohort and returns the
// per-epoch mean loss (Figure 11b's curve).
func TrainClassifier(c *classify.Classifier, cases []dataset.Case, cfg ClassifierTrainingConfig) []float64 {
	tsp := obs.Start("core/train_classifier")
	tsp.SetAttr("epochs", cfg.Epochs)
	tsp.SetAttr("cases", len(cases))
	defer tsp.End()
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := nn.NewAdam(c.Params(), cfg.LR)
	c.SetTraining(true)

	// Pre-compute pipeline inputs once.
	inputs := make([]*tensor.Tensor, len(cases))
	for i, cs := range cases {
		inputs[i] = PrepareClassifierInput(cfg.PreEnhance, cs.Volume)
	}

	d, h, w := cases[0].Volume.D, cases[0].Volume.H, cases[0].Volume.W
	voxels := d * h * w
	order := make([]int, len(cases))
	for i := range order {
		order[i] = i
	}
	var curve []float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss := 0.0
		steps := 0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			b := end - start
			x := tensor.New(b, 1, d, h, w)
			y := tensor.New(b, 1)
			for bi, idx := range order[start:end] {
				in := inputs[idx]
				if cfg.Augment {
					in = classify.Augment(rng, in)
				}
				copy(x.Data[bi*voxels:(bi+1)*voxels], in.Data)
				if cases[idx].Label {
					y.Data[bi] = 1
				}
			}
			stepStart := time.Now()
			opt.ZeroGrad()
			loss := classify.Loss(c.Forward(ag.Const(x)), ag.Const(y))
			loss.Backward()
			opt.Step()
			trainStepSeconds.Observe(time.Since(stepStart).Seconds())
			trainStepLoss.Set(float64(loss.Scalar()))
			epochLoss += float64(loss.Scalar())
			steps++
		}
		curve = append(curve, epochLoss/float64(steps))
	}

	// Batch-norm recalibration: at demo scale the handful of training
	// steps leaves the running statistics far from the feature
	// distribution, collapsing eval-mode outputs. Stream the training
	// inputs through the network in training mode (forward only) until
	// the exponential moving averages converge.
	for pass := 0; pass < 8; pass++ {
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			b := end - start
			x := tensor.New(b, 1, d, h, w)
			for bi, idx := range order[start:end] {
				copy(x.Data[bi*voxels:(bi+1)*voxels], inputs[idx].Data)
			}
			c.Forward(ag.Const(x))
		}
	}
	c.SetTraining(false)
	return curve
}

// Evaluation is the accuracy bundle of Figure 13 / Table 9.
type Evaluation struct {
	Accuracy  float64
	AUC       float64
	Confusion metrics.Confusion
	Threshold float64
	ROC       []metrics.ROCPoint
}

// EvaluateCohort scores a cohort and computes accuracy at the best
// (Youden) threshold, AUC, and the confusion matrix.
func EvaluateCohort(p *Pipeline, cases []dataset.Case) Evaluation {
	probs, labels := p.Score(cases)
	th := metrics.BestThreshold(probs, labels)
	conf := metrics.Confuse(probs, labels, th)
	return Evaluation{
		Accuracy:  conf.Accuracy(),
		AUC:       metrics.AUC(probs, labels),
		Confusion: conf,
		Threshold: th,
		ROC:       metrics.ROC(probs, labels),
	}
}
