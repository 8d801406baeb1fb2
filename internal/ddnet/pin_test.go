package ddnet

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"computecovid19/internal/ag"
	"computecovid19/internal/kernels"
	"computecovid19/internal/nn"
	"computecovid19/internal/tensor"
)

// Parent-commit pins. Every constant in this file was computed at the
// commit before the topology was collapsed into kernels.Walk (714ce55)
// and hard-coded here, so "same weights from the same seed, same
// checkpoint order, same output bits, same tables" is checked against
// the old hand-written walkers rather than assumed.

func pinImage() *tensor.Tensor {
	img := tensor.New(32, 32)
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			img.Data[y*32+x] = float32((y*7+x*13)%32) / 31
		}
	}
	return img
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

const (
	pinParamShapes = "[8 1 7 7][8][8][8][8][32 8 1 1][32][32][8 32 3 3][16][16][32 16 1 1][32][32][8 32 3 3][8 24 1 1][8][8]" +
		"[8][8][32 8 1 1][32][32][8 32 3 3][16][16][32 16 1 1][32][32][8 32 3 3][8 24 1 1][8][8]" +
		"[32 16 3 3][16][16][16 8 1 1][8][8][16 16 3 3][16][16][16 1 1 1]"
	pinStateShapes = "[8][8][8][8][32][32][16][16][32][32][8][8][8][8][32][32][16][16][32][32][8][8][16][16][8][8][16][16]"
)

// TestPinConstruction pins New: the rng draw order (a checksum over
// every initial weight) and the Params()/StateTensors() sequences that
// checkpoints are serialized in.
func TestPinConstruction(t *testing.T) {
	m := New(rand.New(rand.NewSource(1)), TinyConfig())
	var ps []*tensor.Tensor
	for _, p := range m.Params() {
		ps = append(ps, p.T)
	}
	if got := shapeSeq(ps); got != pinParamShapes {
		t.Errorf("Params() shape sequence changed:\n got %s\nwant %s", got, pinParamShapes)
	}
	if got := bitsSum(ps...); got != 0x6fb79760fe9efbe {
		t.Errorf("initial weights checksum %#x: New no longer draws from rng in the parent's order", got)
	}
	if got := shapeSeq(m.StateTensors()); got != pinStateShapes {
		t.Errorf("StateTensors() shape sequence changed:\n got %s\nwant %s", got, pinStateShapes)
	}
}

// TestPinEnhanceBits pins the output bits of both eval paths — on
// freshly initialized weights and again with every BatchNorm given
// distinct statistics and affine parameters through StateTensors() and
// Params(), so a permuted unit or a wrong fold shows.
func TestPinEnhanceBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("output bits were recorded on amd64; other targets may fuse multiply-adds")
	}
	check := func(label string, m *DDnet, unfused, fused uint64) {
		t.Helper()
		if got := bitsSum(m.Enhance(pinImage())); got != unfused {
			t.Errorf("%s: layer-wise Enhance checksum %#x, parent %#x", label, got, unfused)
		}
		m.Warm()
		if got := bitsSum(m.Enhance(pinImage())); got != fused {
			t.Errorf("%s: fused Enhance checksum %#x, parent %#x", label, got, fused)
		}
	}
	check("fresh", New(rand.New(rand.NewSource(1)), TinyConfig()),
		0xbd9f2fd36f6bacce, 0x29225f4f9fb77310)

	m := New(rand.New(rand.NewSource(1)), TinyConfig())
	distinctBN(m) // oracle_test.go; the same perturbation the parent checksums were taken with
	check("distinct BN statistics", m, 0xca75af399bef7d4a, 0xda17757623b54db7)
}

// TestPinPaperTables pins the two paper tables read off the topology:
// Table 2 (LayerShapes at 512) and the Table 6 class totals
// (DDnetCounts at 512) for the paper configuration.
func TestPinPaperTables(t *testing.T) {
	want := []LayerShape{ // Kind, Name, OutC, OutH, OutW, Kernel, Stride, InC, ScaleFac
		{0, "Convolution 1", 16, 512, 512, 7, 1, 1, 0},
		{1, "Pooling 1", 16, 256, 256, 3, 2, 16, 0},
		{2, "Dense Block 1", 80, 256, 256, 5, 1, 16, 0},
		{0, "Convolution 2", 16, 256, 256, 1, 1, 80, 0},
		{1, "Pooling 2", 16, 128, 128, 3, 2, 16, 0},
		{2, "Dense Block 2", 80, 128, 128, 5, 1, 16, 0},
		{0, "Convolution 3", 16, 128, 128, 1, 1, 80, 0},
		{1, "Pooling 3", 16, 64, 64, 3, 2, 16, 0},
		{2, "Dense Block 3", 80, 64, 64, 5, 1, 16, 0},
		{0, "Convolution 4", 16, 64, 64, 1, 1, 80, 0},
		{1, "Pooling 4", 16, 32, 32, 3, 2, 16, 0},
		{2, "Dense Block 4", 80, 32, 32, 5, 1, 16, 0},
		{0, "Convolution 5", 16, 32, 32, 1, 1, 80, 0},
		{3, "Un-pooling 1", 16, 64, 64, 0, 0, 16, 2},
		{4, "Deconvolution 1", 32, 64, 64, 5, 1, 96, 0},
		{4, "Deconvolution 2", 16, 64, 64, 1, 1, 32, 0},
		{3, "Un-pooling 2", 16, 128, 128, 0, 0, 16, 2},
		{4, "Deconvolution 3", 32, 128, 128, 5, 1, 96, 0},
		{4, "Deconvolution 4", 16, 128, 128, 1, 1, 32, 0},
		{3, "Un-pooling 3", 16, 256, 256, 0, 0, 16, 2},
		{4, "Deconvolution 5", 32, 256, 256, 5, 1, 96, 0},
		{4, "Deconvolution 6", 16, 256, 256, 1, 1, 32, 0},
		{3, "Un-pooling 4", 16, 512, 512, 0, 0, 16, 2},
		{4, "Deconvolution 7", 32, 512, 512, 5, 1, 32, 0},
		{4, "Deconvolution 8", 1, 512, 512, 1, 1, 32, 0},
	}
	got := New(rand.New(rand.NewSource(1)), PaperConfig()).LayerShapes(512)
	if len(got) != len(want) {
		t.Fatalf("LayerShapes(512) has %d rows, parent %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Table 2 row %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}

	wantCounts := kernels.ClassCounts{
		Conv:   kernels.Counters{Loads: 0x4b6880000, Stores: 0x1fe4000, Flops: 0x4b6880000},
		Deconv: kernels.Counters{Loads: 0x639c00000, Stores: 0xc30000, Flops: 0x639c00000},
		Other:  kernels.Counters{Loads: 0x157fc000, Stores: 0x6e3c000, Flops: 0x18128000},
	}
	if got := kernels.DDnetCounts(PaperConfig().Arch(), 512); got != wantCounts {
		t.Errorf("DDnetCounts(PaperConfig, 512):\n got %+v\nwant %+v", got, wantCounts)
	}
	wantTiny := kernels.ClassCounts{
		Conv:   kernels.Counters{Loads: 0x10a8000, Stores: 0x23800, Flops: 0x10a8000},
		Deconv: kernels.Counters{Loads: 0x1b60000, Stores: 0x17000, Flops: 0x1b60000},
		Other:  kernels.Counters{Loads: 0x1a6800, Stores: 0x84800, Flops: 0x1f4000},
	}
	if got := kernels.DDnetCounts(TinyConfig().Arch(), 64); got != wantTiny {
		t.Errorf("DDnetCounts(TinyConfig, 64):\n got %+v\nwant %+v", got, wantTiny)
	}
}

// TestPinTraining pins three Adam steps of Loss on fixed data: the
// parameter and running-statistics bits afterwards depend on every
// graph forward value and every convolution and deconvolution
// gradient, so this is what shows a change to the training path left
// its arithmetic alone. The constants were computed before the
// convolution ops were collapsed onto one backward.
func TestPinTraining(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("parameter bits were recorded on amd64")
	}
	img := tensor.New(2, 1, 32, 32)
	target := tensor.New(2, 1, 32, 32)
	for i := range img.Data {
		img.Data[i] = float32((i*7+(i/32)*13)%61) / 60
		target.Data[i] = float32((i*5+(i/32)*3+(i/1024)*17)%53) / 52
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		m := New(rand.New(rand.NewSource(1)), TinyConfig())
		m.SetTraining(true)
		opt := nn.NewAdam(m.Params(), 1e-3)
		for step := 0; step < 3; step++ {
			opt.ZeroGrad()
			Loss(m.Forward(ag.Const(img)), ag.Const(target)).Backward()
			opt.Step()
		}
		runtime.GOMAXPROCS(prev)
		ps := make([]*tensor.Tensor, 0, len(m.Params()))
		for _, p := range m.Params() {
			ps = append(ps, p.T)
		}
		if got := bitsSum(ps...); got != 0xd21000818b59a9d4 {
			t.Errorf("GOMAXPROCS=%d: parameters after 3 Adam steps checksum %#x, parent differs", procs, got)
		}
		if got := bitsSum(m.StateTensors()...); got != 0x7b36f1f71e48d43a {
			t.Errorf("GOMAXPROCS=%d: running statistics after 3 training forwards checksum %#x, parent differs", procs, got)
		}
	}
}
