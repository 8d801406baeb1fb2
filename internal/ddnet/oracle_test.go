package ddnet

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"computecovid19/internal/memplan"
	"computecovid19/internal/obs"
	"computecovid19/internal/tensor"
)

// distinctBN gives every BatchNorm its own statistics and affine
// parameters, so a backend that picked the wrong unit, or a fold that
// dropped a term, changes the output (fresh BatchNorms are near
// identity and would hide both).
func distinctBN(m *DDnet) {
	for i, s := range m.StateTensors() {
		for j := range s.Data {
			s.Data[j] = 0.5 + 0.01*float32((i*31+j*7)%50)
		}
	}
	for i, p := range m.Params() {
		if p.T.Rank() != 1 {
			continue
		}
		for j := range p.T.Data {
			p.T.Data[j] = 0.8 + 0.01*float32((i*17+j*3)%40)
		}
	}
}

// TestForwardOracle is the one differential oracle over the walk's
// forward backends. Every combination of
//
//	path    graph | eval on a network that never called Warm (plan compiled by its
//	        first forward) | eval after Warm
//	batch   each image alone | three per forward (the last takes two) | all eight in one forward
//	workers GOMAXPROCS 1 | 2 | 4 (the default worker count: it picks each forward's
//	        parallel axis, and so every kernel's chunking)
//	arena   cold | warm (second forward on the same arena) | release-poisoning | the global arena behind EnhanceBatch
//
// must stand in its documented relation to the graph forward of each
// image alone on one worker: bit-identical for the graph, and for both
// eval paths within fusedBudget of it while bit-identical to the first
// eval result — so batching, the parallel axis, worker count, arena
// state and when the plan was compiled never change a bit on any path.
// The eval forwards take both planner branches (the kernel split for
// one image or one worker, the slice split otherwise), and the
// kernels/rung spans show that both ran.
func TestForwardOracle(t *testing.T) {
	imgs := evalTestImages(rand.New(rand.NewSource(11)), 8, 32, 32)
	lazy := New(rand.New(rand.NewSource(12)), TinyConfig())
	warm := New(rand.New(rand.NewSource(12)), TinyConfig())
	distinctBN(lazy)
	distinctBN(warm)
	warm.Warm()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer tensor.SetMemDebug(tensor.SetMemDebug(false))
	defer obs.Reset()
	obs.Reset()
	obs.Enable()

	var ref []*tensor.Tensor
	for _, img := range imgs {
		ref = append(ref, graphEnhance(lazy, []*tensor.Tensor{img})...)
	}
	var evalRef []*tensor.Tensor

	paths := []struct {
		name  string
		m     *DDnet
		graph bool
	}{
		{name: "graph", m: lazy, graph: true},
		{name: "eval-lazy", m: lazy},
		{name: "eval-warm", m: warm},
	}
	arenas := []string{"cold", "warm", "memdebug", "global"}
	for _, p := range paths {
		for _, batch := range []int{1, 3, len(imgs)} {
			for _, workers := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(workers)
				for _, arena := range arenas {
					if p.graph && arena != "cold" {
						continue // the graph forward uses no arena
					}
					tensor.SetMemDebug(arena == "memdebug")
					mem := memplan.New()
					var got []*tensor.Tensor
					for lo := 0; lo < len(imgs); lo += batch {
						in := imgs[lo:min(lo+batch, len(imgs))]
						switch {
						case p.graph:
							got = append(got, graphEnhance(p.m, in)...)
						case arena == "global":
							got = append(got, p.m.EnhanceBatch(in)...)
						default:
							if arena == "warm" {
								enhanceInto(p.m, mem, in)
							}
							got = append(got, enhanceInto(p.m, mem, in)...)
						}
					}
					label := fmt.Sprintf("%s/batch%d/workers%d/%s", p.name, batch, workers, arena)
					if p.graph {
						requireSameBits(t, ref, got, label+" vs graph")
						continue
					}
					if d := maxAbsDiff(t, ref, got); d > fusedBudget {
						t.Fatalf("%s drifted %g from the graph forward (budget %g)", label, d, fusedBudget)
					}
					if evalRef == nil {
						evalRef = got
					}
					requireSameBits(t, evalRef, got, label+" vs first eval result")
				}
			}
		}
	}
	splits := map[string]bool{}
	recs, _ := obs.TraceRecords()
	for _, r := range recs {
		for _, a := range r.Attrs {
			if r.Name == "kernels/rung" && a.Key == "split" {
				splits[fmt.Sprint(a.Value)] = true
			}
		}
	}
	if !splits["kernels"] || !splits["slices"] {
		t.Fatalf("planner branches taken: %v, want both kernels and slices", splits)
	}
}

// TestPlanSplit pins the planner's rule — g = min(w, n) groups with w/g
// kernel workers each — and that one worker or one image is the kernel
// split, the single batched forward.
func TestPlanSplit(t *testing.T) {
	for _, c := range []struct{ n, w, groups, workers int }{
		{1, 1, 1, 1}, {8, 1, 1, 1}, {1, 2, 1, 2}, {1, 4, 1, 4},
		{2, 2, 2, 1}, {3, 2, 2, 1}, {8, 2, 2, 1},
		{2, 4, 2, 2}, {3, 4, 3, 1}, {8, 4, 4, 1},
	} {
		got := planSplit(c.n, c.w)
		if got != (split{groups: c.groups, workers: c.workers}) {
			t.Errorf("planSplit(%d images, %d workers) = %+v, want %d groups of %d kernel workers",
				c.n, c.w, got, c.groups, c.workers)
		}
		if (got.axis() == "kernels") != (c.groups == 1) {
			t.Errorf("planSplit(%d, %d): axis %q", c.n, c.w, got.axis())
		}
	}
}

// TestEnhanceBadSizePanicsOnCaller feeds a slice-split batch whose size
// the network cannot pool: the caller-side size check must panic before
// any group reaches a pool worker, where the panic could not be
// recovered and would end the process.
func TestEnhanceBadSizePanicsOnCaller(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	m := New(rng, TinyConfig())
	m.Warm()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	imgs := evalTestImages(rng, 2, 33, 33)
	outs := []*tensor.Tensor{tensor.New(33, 33), tensor.New(33, 33)}
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "divisible by 2^Stages") {
			t.Fatalf("EnhanceBatchInto of 33×33 images: panic %v, want the caller-side size check", r)
		}
	}()
	m.EnhanceBatchInto(context.Background(), memplan.New(), imgs, outs)
}

// TestWarmConcurrentForwardsMixedSizes drives one warm network from
// several goroutines at two input sizes at once — the state forwards
// share (the un-pooling table cache, the recycled eval backends, the
// compiled plan) must neither race nor leak one size's tables into the
// other's forward.
func TestWarmConcurrentForwardsMixedSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := New(rng, TinyConfig())
	m.Warm()
	sizes := []int{16, 32}
	var imgs, want [][]*tensor.Tensor
	for _, sz := range sizes {
		in := evalTestImages(rng, 2, sz, sz)
		imgs = append(imgs, in)
		want = append(want, enhanceInto(m, memplan.New(), in))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := g % len(sizes)
			mem := memplan.New()
			outs := []*tensor.Tensor{tensor.New(sizes[k], sizes[k]), tensor.New(sizes[k], sizes[k])}
			for i := 0; i < 4; i++ {
				m.EnhanceBatchInto(context.Background(), mem, imgs[k], outs)
				for j := range outs {
					if bitsSum(outs[j]) != bitsSum(want[k][j]) {
						t.Errorf("goroutine %d size %d: concurrent forward changed output bits", g, sizes[k])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestForwardSpanTree pins the trace both forward backends emit: the
// forward span, the rung span beneath it (carrying the rung that ran —
// fused on every eval forward, warm or not, gemm on the graph forward —
// and, on the eval forward, plan=fused and the planner's split, groups
// and kernel_workers), and one span per walk stage beneath that, in
// walk order. A slice-split batch emits that tree once per image, each
// under the caller's span.
func TestForwardSpanTree(t *testing.T) {
	defer obs.Reset()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	m := New(rand.New(rand.NewSource(41)), TinyConfig())
	tree := []string{
		"ddnet/forward<-", "kernels/rung<-ddnet/forward",
		"ddnet/stem<-kernels/rung", "ddnet/enc0<-kernels/rung", "ddnet/enc1<-kernels/rung",
		"ddnet/dec0<-kernels/rung", "ddnet/dec1<-kernels/rung",
	}
	for _, path := range []string{"graph", "eval-lazy", "eval-warm"} {
		for _, n := range []int{1, 2} {
			if path == "graph" && n == 2 {
				continue // the graph forward has no planner
			}
			img := evalTestImages(rand.New(rand.NewSource(42)), n, 32, 32)
			obs.Reset()
			obs.Enable()
			switch path {
			case "graph":
				graphEnhance(m, img)
			case "eval-warm":
				m.Warm()
				fallthrough
			default:
				enhanceInto(m, memplan.New(), img)
			}
			recs, _ := obs.TraceRecords()
			name := map[obs.SpanID]string{}
			for _, r := range recs {
				name[r.ID] = r.Name
			}
			var got, want []string
			for range n {
				want = append(want, tree...)
			}
			attrs := map[string]string{}
			for _, r := range recs {
				got = append(got, r.Name+"<-"+name[r.Parent])
				if r.Name == "kernels/rung" {
					for _, a := range r.Attrs {
						attrs[a.Key] = fmt.Sprint(a.Value)
					}
				}
			}
			sort.Strings(got)
			sort.Strings(want)
			label := fmt.Sprintf("%s/%d images on 2 procs", path, n)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s span tree:\n got %v\nwant %v", label, got, want)
			}
			if _, fused := attrs["plan"]; fused != (path != "graph") {
				t.Fatalf("%s: plan=fused attribute present=%v", label, fused)
			}
			wantRung := "fused"
			if path == "graph" {
				wantRung = "gemm"
			}
			if attrs["rung"] != wantRung {
				t.Errorf("%s: kernels/rung rung=%q, want %q", label, attrs["rung"], wantRung)
			}
			wantSplit := map[string]string{}
			switch {
			case path == "graph":
			case n == 1:
				wantSplit = map[string]string{"split": "kernels", "groups": "1", "kernel_workers": "2"}
			default:
				wantSplit = map[string]string{"split": "slices", "groups": "2", "kernel_workers": "1"}
			}
			for k, v := range wantSplit {
				if attrs[k] != v {
					t.Errorf("%s: kernels/rung %s=%q, want %q", label, k, attrs[k], v)
				}
			}
		}
	}
}
