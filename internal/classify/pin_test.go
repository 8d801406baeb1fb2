package classify

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"computecovid19/internal/ag"
	"computecovid19/internal/memplan"
	"computecovid19/internal/nn"
	"computecovid19/internal/tensor"
	"computecovid19/internal/volume"
)

// Parent-commit pins. Every constant in this file was computed at the
// commit before the classifier's hand walks were collapsed into walk
// and the ag graph/eval forward loops into shared kernels (cdb3a22),
// and hard-coded here, so "same weights from the same seed, same
// checkpoint order, same probability bits, same gradients" is checked
// against the old code rather than assumed.

func pinVolume() *volume.Volume {
	v := volume.New(16, 16, 16)
	for i := range v.Data {
		v.Data[i] = float32((i*7+(i/16)*13+(i/256)*5)%64) / 63
	}
	return v
}

// bitsSum is FNV-64a over the tensors' little-endian float32 bits.
func bitsSum(ts ...*tensor.Tensor) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, t := range ts {
		for _, v := range t.Data {
			u := math.Float32bits(v)
			b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func shapeSeq(ts []*tensor.Tensor) string {
	var b strings.Builder
	for _, t := range ts {
		fmt.Fprint(&b, t.Shape)
	}
	return b.String()
}

func tensorsOf(ps []*ag.Value) []*tensor.Tensor {
	ts := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		ts[i] = p.T
	}
	return ts
}

// distinctBN gives every BatchNorm its own statistics and affine
// parameters, so a backend that picked the wrong unit changes the
// output (fresh BatchNorms are near identity and would hide it).
func distinctBN(c *Classifier) {
	for i, s := range c.StateTensors() {
		for j := range s.Data {
			s.Data[j] = 0.5 + 0.01*float32((i*31+j*7)%50)
		}
	}
	for i, p := range c.Params() {
		if p.T.Rank() != 1 {
			continue
		}
		for j := range p.T.Data {
			p.T.Data[j] = 0.8 + 0.01*float32((i*17+j*3)%40)
		}
	}
}

const (
	pinTrunkShapes = "[8 1 3 3 3][8][8]" +
		"[8][8][24 8 1 1 1][24][24][6 24 3 3 3][14][14][24 14 1 1 1][24][24][6 24 3 3 3][10 20 1 1 1][10][10]" +
		"[10][10][24 10 1 1 1][24][24][6 24 3 3 3][16][16][24 16 1 1 1][24][24][6 24 3 3 3][11 22 1 1 1][11][11]" +
		"[11][11][24 11 1 1 1][24][24][6 24 3 3 3][17][17][24 17 1 1 1][24][24][6 24 3 3 3][23][23]"
	pinHeadShapes  = "[1 23][1]"
	pinStateShapes = "[8][8][8][8][24][24][14][14][24][24][10][10][10][10][24][24][16][16][24][24][11][11][11][11][24][24][17][17][24][24][23][23]"
)

// TestPinConstruction pins New: the rng draw order (a checksum over
// every initial weight) and the Params()/StateTensors() sequences that
// checkpoints and distrib all-reduce are laid out in.
func TestPinConstruction(t *testing.T) {
	c := New(rand.New(rand.NewSource(1)), SmallConfig())
	ps := tensorsOf(c.Params())
	if got := shapeSeq(ps); got != pinTrunkShapes+pinHeadShapes {
		t.Errorf("Params() shape sequence changed:\n got %s\nwant %s", got, pinTrunkShapes+pinHeadShapes)
	}
	if got := bitsSum(ps...); got != 0xdf9e0d2e629dd154 {
		t.Errorf("initial weights checksum %#x: New no longer draws from rng in the parent's order", got)
	}
	if got := shapeSeq(c.StateTensors()); got != pinStateShapes {
		t.Errorf("StateTensors() shape sequence changed:\n got %s\nwant %s", got, pinStateShapes)
	}

	g := NewSeverityGrader(rand.New(rand.NewSource(1)), SmallConfig(), NumGrades)
	gs := tensorsOf(g.Params())
	if got, want := shapeSeq(gs), pinTrunkShapes+"[3 23][3]"; got != want {
		t.Errorf("SeverityGrader.Params() shape sequence changed:\n got %s\nwant %s", got, want)
	}
	if got := bitsSum(gs...); got != 0xe535d1f74ca15df0 {
		t.Errorf("grader initial weights checksum %#x, parent differs", got)
	}
	if got := shapeSeq(g.StateTensors()); got != pinStateShapes {
		t.Errorf("SeverityGrader.StateTensors() shape sequence changed:\n got %s", got)
	}
}

// TestPinPredictBits pins the probability bits of the graph forward
// and of the compiled plan after Warm, with every BatchNorm given
// distinct statistics and affine parameters.
func TestPinPredictBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("output bits were recorded on amd64; other targets may fuse multiply-adds")
	}
	c := New(rand.New(rand.NewSource(1)), SmallConfig())
	distinctBN(c)
	const want = 0x3fe6d62b40000000
	if got := math.Float64bits(c.Predict(pinVolume())); got != want {
		t.Errorf("Predict bits %#x, parent %#x", got, uint64(want))
	}
	c.Warm()
	const warmWant = 0x3fe6d62b40000000
	if got := math.Float64bits(c.PredictPooled(memplan.New(), pinVolume())); got != warmWant {
		t.Errorf("warm PredictPooled bits %#x, parent %#x", got, uint64(warmWant))
	}

	g := NewSeverityGrader(rand.New(rand.NewSource(1)), SmallConfig(), NumGrades)
	distinctBN(g.trunk)
	_, probs := g.PredictGrade(pinVolume())
	var sum uint64
	for _, p := range probs {
		sum = sum*31 + math.Float64bits(p)
	}
	if sum != 0x9bec8786e0000000 {
		t.Errorf("PredictGrade probability bits fold to %#x, parent differs", sum)
	}
}

// TestPinTraining pins three Adam steps of classify.Loss on fixed data:
// the parameter and running-statistics bits afterwards depend on every
// graph forward value and every gradient, so this is what shows the
// shared forward kernels left the training path's inputs to backward
// (activations, max-pool argmax, batch statistics) unchanged.
func TestPinTraining(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("parameter bits were recorded on amd64")
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		c := New(rand.New(rand.NewSource(1)), SmallConfig())
		c.SetTraining(true)
		opt := nn.NewAdam(c.Params(), 5e-3)
		batch := tensor.New(2, 1, 8, 16, 16)
		for i := range batch.Data {
			batch.Data[i] = float32((i*11+(i/16)*3+(i/2048)*29)%97) / 96
		}
		labels := tensor.FromSlice([]float32{1, 0}, 2, 1)
		for step := 0; step < 3; step++ {
			opt.ZeroGrad()
			Loss(c.Forward(ag.Const(batch)), ag.Const(labels)).Backward()
			opt.Step()
		}
		runtime.GOMAXPROCS(prev)
		if got := bitsSum(tensorsOf(c.Params())...); got != 0xb386723bd482e00d {
			t.Errorf("GOMAXPROCS=%d: parameters after 3 Adam steps checksum %#x, parent differs", procs, got)
		}
		if got := bitsSum(c.StateTensors()...); got != 0xc2cd823a1e8fb259 {
			t.Errorf("GOMAXPROCS=%d: running statistics after 3 training forwards checksum %#x, parent differs", procs, got)
		}
	}
}
