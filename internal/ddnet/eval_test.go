package ddnet

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"computecovid19/internal/ag"
	"computecovid19/internal/memplan"
	"computecovid19/internal/tensor"
)

func evalTestImages(rng *rand.Rand, n, h, w int) []*tensor.Tensor {
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		imgs[i] = tensor.New(h, w)
		for j := range imgs[i].Data {
			imgs[i].Data[j] = rng.Float32()
		}
	}
	return imgs
}

// graphEnhance is the tape-building reference of the eval forward: the
// graph forward in eval mode, clamped to [0, 1] as EnhanceBatch clamps.
func graphEnhance(m *DDnet, imgs []*tensor.Tensor) []*tensor.Tensor {
	h, w := imgs[0].Shape[0], imgs[0].Shape[1]
	m.SetTraining(false)
	x := tensor.New(len(imgs), 1, h, w)
	for i, img := range imgs {
		copy(x.Data[i*h*w:(i+1)*h*w], img.Data)
	}
	out := m.Forward(ag.Const(x))
	res := make([]*tensor.Tensor, len(imgs))
	for i := range imgs {
		t := tensor.New(h, w)
		copy(t.Data, out.T.Data[i*h*w:(i+1)*h*w])
		res[i] = t.Clamp(0, 1)
	}
	return res
}

func requireSameBits(t *testing.T, want, got []*tensor.Tensor, label string) {
	t.Helper()
	for i := range want {
		for j := range want[i].Data {
			wb := math.Float32bits(want[i].Data[j])
			gb := math.Float32bits(got[i].Data[j])
			if wb != gb {
				t.Fatalf("%s: image %d element %d: %08x != %08x",
					label, i, j, gb, wb)
			}
		}
	}
}

// TestAllocsWarmEnhance pins the pooled forward's performance claim on
// a network that never called Warm: its first EnhanceBatchInto compiles
// the plan, and every later one performs zero heap allocations.
func TestAllocsWarmEnhance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := New(rng, TinyConfig())
	imgs := evalTestImages(rng, 1, 32, 32)
	outs := []*tensor.Tensor{tensor.New(32, 32)}
	mem := memplan.New()
	ctx := context.Background()
	warm := func() { m.EnhanceBatchInto(ctx, mem, imgs, outs) }
	warm()
	if n := testing.AllocsPerRun(20, warm); n != 0 {
		t.Fatalf("warm EnhanceBatchInto allocates %v allocs/op, want 0", n)
	}
}
