package core

import (
	"context"
	"time"

	"computecovid19/internal/ctsim"
	"computecovid19/internal/obs"
	"computecovid19/internal/parallel"
	"computecovid19/internal/segment"
	"computecovid19/internal/tensor"
	"computecovid19/internal/volume"
)

// scanScratch is the per-scan working memory of the inference hot path:
// the segmenter scratch, the normalized slice staging pair for
// Enhancement AI, and the masked+windowed volume fed to Classification
// AI. One scratch serves one scan at a time; the pipeline keeps a free
// list so concurrent scans each grab their own and warm steady state
// allocates nothing.
type scanScratch struct {
	seg *segment.Scratch
	// The slice staging pairs, one normalized input and one enhanced
	// output per worker. A group of slices goes to EnhanceBatchInto as a
	// subslice of this heap-resident scratch rather than a stack array
	// that would escape per call.
	imgs, outs []*tensor.Tensor
	norm       *volume.Volume // masked, windowed classifier input
}

// ensureSlices sizes the staging pairs to at least n slices of h×w.
func (s *scanScratch) ensureSlices(n, h, w int) {
	if len(s.imgs) > 0 && (s.imgs[0].Shape[0] != h || s.imgs[0].Shape[1] != w) {
		s.imgs, s.outs = s.imgs[:0], s.outs[:0]
	}
	for len(s.imgs) < n {
		s.imgs = append(s.imgs, tensor.New(h, w))
		s.outs = append(s.outs, tensor.New(h, w))
	}
}

func (s *scanScratch) ensureVolume(d, h, w int) {
	if s.norm == nil || s.norm.D != d || s.norm.H != h || s.norm.W != w {
		s.norm = volume.New(d, h, w)
	}
}

func (p *Pipeline) getScratch() *scanScratch {
	p.scratchMu.Lock()
	if n := len(p.scratch); n > 0 {
		s := p.scratch[n-1]
		p.scratch[n-1] = nil
		p.scratch = p.scratch[:n-1]
		p.scratchMu.Unlock()
		return s
	}
	p.scratchMu.Unlock()
	return &scanScratch{seg: segment.NewScratch(p.Arena())}
}

func (p *Pipeline) putScratch(s *scanScratch) {
	p.scratchMu.Lock()
	p.scratch = append(p.scratch, s)
	p.scratchMu.Unlock()
}

// GetVolume returns a recycled volume of the requested dimensions (see
// RecycleVolume), or a fresh one when none is pooled. The contents are
// whatever the previous user left; callers must fully overwrite them.
func (p *Pipeline) GetVolume(d, h, w int) *volume.Volume {
	p.volMu.Lock()
	for i := len(p.vols) - 1; i >= 0; i-- {
		v := p.vols[i]
		if v.D == d && v.H == h && v.W == w {
			last := len(p.vols) - 1
			p.vols[i] = p.vols[last]
			p.vols[last] = nil
			p.vols = p.vols[:last]
			p.volMu.Unlock()
			return v
		}
	}
	p.volMu.Unlock()
	return volume.New(d, h, w)
}

// RecycleVolume hands a pipeline-produced volume (an Enhance output, or
// Result.Enhanced from Diagnose when enhancement ran) back for reuse by
// later scans. Only recycle volumes the pipeline returned to you, and
// never one that aliases your own input: with a nil Enhancer, Enhance
// and Diagnose return the input volume itself, and Classify's
// Result.Enhanced is always the caller's volume. Recycling nil is a
// no-op.
func (p *Pipeline) RecycleVolume(v *volume.Volume) {
	if v == nil {
		return
	}
	p.volMu.Lock()
	p.vols = append(p.vols, v)
	p.volMu.Unlock()
}

// RecycleResult returns a Result's pooled storage — the lung mask — to
// the pipeline arena. Call it once the result is fully consumed; a warm
// serving loop that recycles results runs Classify with zero
// steady-state heap allocations. Result.Enhanced is deliberately not
// recycled here because it may alias the caller's input volume; use
// RecycleVolume for volumes you own.
func (p *Pipeline) RecycleResult(r Result) {
	if r.LungMask != nil {
		p.Arena().PutBools(r.LungMask)
	}
}

// EnhanceInto is Enhance writing into a caller-provided volume: the
// zero-allocation form of the enhancement stage. out must match v's
// dimensions and is fully overwritten; with no enhancer the input is
// copied. Unlike Enhance, the forward-pass spans continue the context's
// trace.
func (p *Pipeline) EnhanceInto(ctx context.Context, v, out *volume.Volume) {
	if out.D != v.D || out.H != v.H || out.W != v.W {
		panic("core: EnhanceInto output must match the input dimensions")
	}
	_, sp := obs.StartCtx(ctx, "core/enhance")
	start := time.Now()
	defer func() {
		stageEnhanceSeconds.Observe(time.Since(start).Seconds())
		sp.End()
	}()
	sp.SetAttr("slices", v.D)
	if p.Enhancer == nil {
		copy(out.Data, v.Data)
		return
	}
	p.enhanceSlices(ctx, v, out)
}

// enhanceSlices runs Enhancement AI over the volume from pooled memory,
// writing the enhanced HU volume into out (every voxel overwritten).
// Slices go to the network in groups of at most
// parallel.DefaultWorkers, so the forward can run them side by side (it
// picks its parallel axis per call) while the staging memory stays at
// one slice pair per worker whatever the depth.
func (p *Pipeline) enhanceSlices(ctx context.Context, v, out *volume.Volume) {
	s := p.getScratch()
	group := min(parallel.DefaultWorkers(), v.D)
	s.ensureSlices(group, v.H, v.W)
	for z0 := 0; z0 < v.D; z0 += group {
		k := min(group, v.D-z0)
		for i, img := range s.imgs[:k] {
			for j, hu := range v.Slice(z0 + i) {
				img.Data[j] = float32(ctsim.NormalizeHU(float64(hu), p.WindowLo, p.WindowHi))
			}
		}
		p.Enhancer.EnhanceBatchInto(ctx, p.Arena(), s.imgs[:k], s.outs[:k])
		for i, enh := range s.outs[:k] {
			dst := out.Slice(z0 + i)
			for j, val := range enh.Data {
				dst[j] = float32(ctsim.DenormalizeHU(float64(val), p.WindowLo, p.WindowHi))
			}
		}
	}
	p.putScratch(s)
}
