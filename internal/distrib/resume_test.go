package distrib

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"computecovid19/internal/tensor"
)

// Resume regression: checkpoint → restore → train(N steps) must be
// bit-identical to training N steps without the interruption, across
// group sizes. This is the property
// that makes `cctrain -resume` trustworthy — a resumed Table-3 run is
// the run, not an approximation of it.

// runSteps trains count steps drawing fresh batches from rng, returning
// each step's loss.
func runSteps(tr *Trainer, rng *rand.Rand, count int) []float64 {
	losses := make([]float64, 0, count)
	for i := 0; i < count; i++ {
		xs, ys := toyData(rng, 6)
		losses = append(losses, tr.Step(xs, ys))
	}
	return losses
}

func masterParams(tr *Trainer) []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, p := range tr.Master().Params() {
		out = append(out, p.T)
	}
	return out
}

func bitIdenticalParams(a, b []*tensor.Tensor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i].Data {
			if a[i].Data[j] != b[i].Data[j] {
				return false
			}
		}
	}
	return true
}

func checkResumeBitIdentical(t *testing.T, nodes int, seed int64, split, extra int) {
	t.Helper()
	total := split + extra

	// Reference: uninterrupted run.
	ref := NewTrainer(newToyFactory(), nodes, 0.01, toyLoss)
	refSrc := NewRNG(seed)
	refLosses := runSteps(ref, rand.New(refSrc), total)

	// Interrupted run: train to split, checkpoint through disk, restore
	// into a brand-new trainer, continue.
	first := NewTrainer(newToyFactory(), nodes, 0.01, toyLoss)
	firstSrc := NewRNG(seed)
	firstRng := rand.New(firstSrc)
	runSteps(first, firstRng, split)
	s := first.Snapshot()
	s.RNG = firstSrc.State()
	cm := &CheckpointManager{Dir: t.TempDir()}
	path, err := cm.Save(s)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}

	resumed := NewTrainer(newToyFactory(), nodes, 0.01, toyLoss)
	if err := resumed.Restore(loaded); err != nil {
		t.Fatal(err)
	}
	resumedSrc := NewRNG(0)
	resumedSrc.SetState(loaded.RNG)
	tailLosses := runSteps(resumed, rand.New(resumedSrc), extra)

	for i, l := range tailLosses {
		if l != refLosses[split+i] {
			t.Fatalf("nodes=%d: step %d loss %v differs from uninterrupted %v",
				nodes, split+i, l, refLosses[split+i])
		}
	}
	if !bitIdenticalParams(masterParams(ref), masterParams(resumed)) {
		t.Fatalf("nodes=%d: resumed parameters are not bit-identical", nodes)
	}
	if resumed.GlobalStep() != uint64(total) {
		t.Fatalf("resumed global step %d, want %d", resumed.GlobalStep(), total)
	}
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	for _, nodes := range []int{1, 2, 4} {
		// The trainer's collective is the ring all-reduce.
		t.Run(fmt.Sprintf("nodes=%d/ring", nodes), func(t *testing.T) {
			checkResumeBitIdentical(t, nodes, 42, 7, 9)
		})
	}
}

// Property form: any seed and any split point preserve bit-identity.
func TestCheckpointResumeProperty(t *testing.T) {
	f := func(seed int64, splitRaw, extraRaw, nodeRaw uint8) bool {
		nodes := []int{1, 2, 4}[nodeRaw%3]
		split := int(splitRaw%6) + 1
		extra := int(extraRaw%5) + 1
		checkResumeBitIdentical(t, nodes, seed, split, extra)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
