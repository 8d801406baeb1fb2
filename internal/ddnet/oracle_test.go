package ddnet

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"computecovid19/internal/kernels"
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
//	path    graph | eval layer-wise | eval fused plan | warmed model on a rung without epilogues
//	batch   each image alone | all three in one forward
//	workers GOMAXPROCS 1 | 4 (the default worker count, hence every kernel's chunking)
//	arena   cold | warm (second forward on the same arena) | release-poisoning | the global arena behind EnhanceBatch
//
// must stand in its documented relation to the graph forward of each
// image alone on one worker: bit-identical for the graph and both
// layer-wise paths, and for the fused plan within fusedBudget of it
// while bit-identical to the first fused result — so batching, worker
// count and arena state never change a bit on any path.
func TestForwardOracle(t *testing.T) {
	imgs := evalTestImages(rand.New(rand.NewSource(11)), 3, 32, 32)
	cold := New(rand.New(rand.NewSource(12)), TinyConfig())
	warm := New(rand.New(rand.NewSource(12)), TinyConfig())
	distinctBN(cold)
	distinctBN(warm)
	warm.Warm()
	if warm.plan.Load() == nil {
		t.Fatal("Warm must compile the fused plan")
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer func(rung string) {
		if err := kernels.SetDefault(rung); err != nil {
			t.Fatal(err)
		}
	}(kernels.Default().Name)
	defer tensor.SetMemDebug(tensor.SetMemDebug(false))

	var ref []*tensor.Tensor
	for _, img := range imgs {
		ref = append(ref, graphEnhance(cold, []*tensor.Tensor{img})...)
	}
	var fusedRef []*tensor.Tensor

	paths := []struct {
		name  string
		m     *DDnet
		rung  string
		graph bool
		fused bool
	}{
		{name: "graph", m: cold, rung: "fused", graph: true},
		{name: "eval-layerwise", m: cold, rung: "fused"},
		{name: "eval-fused", m: warm, rung: "fused", fused: true},
		{name: "eval-warm-on-gemm-rung", m: warm, rung: "gemm"},
	}
	arenas := []string{"cold", "warm", "memdebug", "global"}
	for _, p := range paths {
		if err := kernels.SetDefault(p.rung); err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{1, len(imgs)} {
			for _, workers := range []int{1, 4} {
				runtime.GOMAXPROCS(workers)
				for _, arena := range arenas {
					if p.graph && arena != "cold" {
						continue // the graph forward uses no arena
					}
					tensor.SetMemDebug(arena == "memdebug")
					mem := memplan.New()
					var got []*tensor.Tensor
					for lo := 0; lo < len(imgs); lo += batch {
						in := imgs[lo : lo+batch]
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
					if !p.fused {
						requireSameBits(t, ref, got, label+" vs graph")
						continue
					}
					if d := maxAbsDiff(t, ref, got); d > fusedBudget {
						t.Fatalf("%s drifted %g from the graph forward (budget %g)", label, d, fusedBudget)
					}
					if fusedRef == nil {
						fusedRef = got
					}
					requireSameBits(t, fusedRef, got, label+" vs first fused result")
				}
			}
		}
	}
	if cold.plan.Load() != nil {
		t.Fatal("plain inference must not compile a plan (that is Warm's job)")
	}
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
// forward span, the rung span beneath it (carrying the rung name, and
// plan=fused on the compiled plan), and one span per walk stage beneath
// that, in walk order.
func TestForwardSpanTree(t *testing.T) {
	defer obs.Reset()
	m := New(rand.New(rand.NewSource(41)), TinyConfig())
	img := evalTestImages(rand.New(rand.NewSource(42)), 1, 32, 32)
	want := []string{
		"ddnet/forward<-", "kernels/rung<-ddnet/forward",
		"ddnet/stem<-kernels/rung", "ddnet/enc0<-kernels/rung", "ddnet/enc1<-kernels/rung",
		"ddnet/dec0<-kernels/rung", "ddnet/dec1<-kernels/rung",
	}
	for _, path := range []string{"graph", "eval-layerwise", "eval-fused"} {
		obs.Reset()
		obs.Enable()
		switch path {
		case "graph":
			graphEnhance(m, img)
		case "eval-fused":
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
		var got []string
		fused := false
		for _, r := range recs {
			got = append(got, r.Name+"<-"+name[r.Parent])
			for _, a := range r.Attrs {
				fused = fused || (r.Name == "kernels/rung" && a.Key == "plan")
			}
		}
		sort.Strings(got)
		sort.Strings(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s span tree:\n got %v\nwant %v", path, got, want)
		}
		if fused != (path == "eval-fused") {
			t.Fatalf("%s: plan=fused attribute present=%v", path, fused)
		}
	}
}
