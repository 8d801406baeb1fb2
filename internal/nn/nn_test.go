package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"computecovid19/internal/ag"
	"computecovid19/internal/tensor"
)

func TestConv2DLayerShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewConv2D(rng, 3, 8, 5, true, 0.01)
	x := ag.Const(tensor.New(2, 3, 12, 12))
	y := l.Forward(x)
	want := []int{2, 8, 12, 12}
	for i, d := range want {
		if y.T.Shape[i] != d {
			t.Fatalf("conv layer out shape %v, want %v", y.T.Shape, want)
		}
	}
	if len(l.Params()) != 2 {
		t.Fatalf("conv with bias has %d params, want 2", len(l.Params()))
	}
}

func TestSequentialComposes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewSequential(
		NewConv2D(rng, 1, 4, 3, true, 0.1),
		LeakyReLU(0.01),
		MaxPool2D(3, 2, 1),
		NewConv2D(rng, 4, 2, 1, true, 0.1),
	)
	x := ag.Const(tensor.New(1, 1, 8, 8).RandN(rng, 0, 1))
	y := net.Forward(x)
	want := []int{1, 2, 4, 4}
	for i, d := range want {
		if y.T.Shape[i] != d {
			t.Fatalf("sequential out shape %v, want %v", y.T.Shape, want)
		}
	}
	if got := len(net.Params()); got != 4 {
		t.Fatalf("sequential params = %d, want 4", got)
	}
}

func TestAdamReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewSequential(
		NewLinear(rng, 2, 8, 0.5),
		&Func{F: ag.Tanh},
		NewLinear(rng, 8, 1, 0.5),
	)
	opt := NewAdam(net.Params(), 0.05)
	// XOR-ish regression task.
	x := ag.Const(tensor.FromSlice([]float32{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2))
	y := ag.Const(tensor.FromSlice([]float32{0, 1, 1, 0}, 4, 1))
	var first, last float64
	for i := 0; i < 300; i++ {
		opt.ZeroGrad()
		loss := ag.MSELoss(net.Forward(x), y)
		loss.Backward()
		opt.Step()
		if i == 0 {
			first = float64(loss.Scalar())
		}
		last = float64(loss.Scalar())
	}
	if last > first/10 || last > 0.05 {
		t.Fatalf("Adam did not fit XOR: first %v, last %v", first, last)
	}
}

func TestExponentialLRDecay(t *testing.T) {
	opt := NewAdam(nil, 1e-4)
	sched := NewExponentialLR(opt, 0.8)
	for i := 0; i < 3; i++ {
		sched.StepEpoch()
	}
	want := 1e-4 * 0.8 * 0.8 * 0.8
	if math.Abs(opt.LR()-want) > 1e-12 {
		t.Fatalf("LR after 3 epochs = %v, want %v", opt.LR(), want)
	}
}

func TestNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewConv2D(rng, 2, 4, 3, true, 0.1)
	if got := NumParams(l.Params()); got != 4*2*3*3+4 {
		t.Fatalf("NumParams = %d, want %d", got, 4*2*3*3+4)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	build := func() Module {
		r := rand.New(rand.NewSource(99))
		return NewSequential(
			NewConv2D(r, 1, 4, 3, true, 0.1),
			NewBatchNorm(4),
			LeakyReLU(0.01),
			NewConv2D(r, 4, 1, 3, true, 0.1),
		)
	}
	src := build()
	// Mutate parameters and batch-norm state so defaults don't mask bugs.
	for _, p := range src.Params() {
		p.T.RandN(rng, 0, 1)
	}
	x := ag.Const(tensor.New(2, 1, 6, 6).RandN(rng, 0, 1))
	src.Forward(x) // updates running stats in training mode

	var buf bytes.Buffer
	if err := SaveModule(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := build()
	if err := LoadModule(&buf, dst); err != nil {
		t.Fatal(err)
	}
	src.SetTraining(false)
	dst.SetTraining(false)
	y1 := src.Forward(x)
	y2 := dst.Forward(x)
	if !y1.T.AllClose(y2.T, 1e-6) {
		t.Fatal("save/load round trip changed the module output")
	}
}

func TestLoadRejectsWrongArchitecture(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := NewConv2D(rng, 1, 2, 3, true, 0.1)
	var buf bytes.Buffer
	if err := SaveModule(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := NewConv2D(rng, 1, 3, 3, true, 0.1) // different out channels
	if err := LoadModule(&buf, dst); err == nil {
		t.Fatal("expected error loading into mismatched architecture")
	}
}

func TestSaveLoadFile(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	src := NewLinear(rng, 3, 2, 0.5)
	path := t.TempDir() + "/model.cc19"
	if err := SaveModuleFile(path, src); err != nil {
		t.Fatal(err)
	}
	dst := NewLinear(rand.New(rand.NewSource(11)), 3, 2, 0.5)
	if err := LoadModuleFile(path, dst); err != nil {
		t.Fatal(err)
	}
	if !src.W.T.AllClose(dst.W.T, 0) {
		t.Fatal("file round trip changed weights")
	}
}

func TestBatchNormLayerModes(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	bn := NewBatchNorm(2)
	x := ag.Const(tensor.New(4, 2, 3, 3).RandN(rng, 10, 2))
	bn.SetTraining(true)
	yTrain := bn.Forward(x)
	if math.Abs(yTrain.T.Mean()) > 1e-3 {
		t.Fatalf("training-mode BN mean = %v, want ~0", yTrain.T.Mean())
	}
	bn.SetTraining(false)
	yEval := bn.Forward(x)
	// Eval uses running stats (after a single momentum-0.1 update they are
	// still far from batch stats), so outputs must differ.
	if yTrain.T.AllClose(yEval.T, 1e-3) {
		t.Fatal("eval output should differ from training output after one update")
	}
}

// TestAdamStateRoundTrip checks the checkpointing accessors: copying a
// trained optimizer's moments and step counter into a fresh optimizer
// makes the two produce identical updates thereafter.
func TestAdamStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mkParams := func() []*ag.Value {
		w := tensor.New(4, 3).RandN(rng, 0, 1)
		return []*ag.Value{ag.Param(w.Clone())}
	}
	grads := func(ps []*ag.Value, seed int64) {
		g := rand.New(rand.NewSource(seed))
		for _, p := range ps {
			p.Grad = tensor.New(p.T.Shape...).RandN(g, 0, 1)
		}
	}

	p1 := mkParams()
	a1 := NewAdam(p1, 0.01)
	for s := 0; s < 5; s++ {
		grads(p1, int64(s))
		a1.Step()
	}

	// Fresh params + optimizer, restored from a1's state.
	p2 := mkParams()
	for i := range p2 {
		copy(p2[i].T.Data, p1[i].T.Data)
	}
	a2 := NewAdam(p2, 0.01)
	m1, v1 := a1.Moments()
	m2, v2 := a2.Moments()
	for i := range m1 {
		copy(m2[i].Data, m1[i].Data)
		copy(v2[i].Data, v1[i].Data)
	}
	a2.SetStepCount(a1.StepCount())
	if a2.StepCount() != 5 {
		t.Fatalf("restored step count %d, want 5", a2.StepCount())
	}

	for s := 5; s < 10; s++ {
		grads(p1, int64(s))
		grads(p2, int64(s))
		a1.Step()
		a2.Step()
	}
	for i := range p1 {
		for j := range p1[i].T.Data {
			if p1[i].T.Data[j] != p2[i].T.Data[j] {
				t.Fatalf("param %d elem %d diverged after state restore: %v vs %v",
					i, j, p1[i].T.Data[j], p2[i].T.Data[j])
			}
		}
	}
}
