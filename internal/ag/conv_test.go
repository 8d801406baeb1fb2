package ag

import (
	"math/rand"
	"testing"
	"testing/quick"

	"computecovid19/internal/kernels"
	"computecovid19/internal/tensor"
)

// naiveConv2D is the reference for the 2D graph convolutions: the
// kernels Baseline rung's direct loops run image by image, plus the bias.
// w is (Cout, Cin, K, K), or (Cin, Cout, K, K) when transposed.
func naiveConv2D(x, w *tensor.Tensor, b *Value, transposed bool) *tensor.Tensor {
	n, cin, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	cout, run := w.Shape[0], kernels.Baseline.Conv
	if transposed {
		cout, run = w.Shape[1], kernels.Baseline.Deconv
	}
	s := kernels.ConvShape{InC: cin, H: h, W: wd, OutC: cout, K: w.Shape[2]}
	want := make([]float32, n*s.OutLen())
	for ni := 0; ni < n; ni++ {
		run(x.Data[ni*s.InLen():], w.Data, want[ni*s.OutLen():], s, 1)
	}
	if b != nil {
		for i := range want {
			want[i] += b.T.Data[i/(h*wd)%cout]
		}
	}
	return tensor.FromSlice(want, n, cout, h, wd)
}

// TestConv2DFastMatchesDirect compares the 2D graph convolutions, whose
// forward is the implicit GEMM (kernels.ConvFused), with the
// direct loops of the Baseline rung: every kernel size the networks use
// and one more, batch 1 and 2, with and without bias.
func TestConv2DFastMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct{ n, cin, h, w, cout, k int }{
		{1, 1, 8, 8, 4, 3},
		{2, 3, 10, 12, 5, 5},
		{2, 4, 6, 6, 2, 1},
		{1, 2, 7, 7, 3, 7},
	}
	for _, c := range cases {
		for _, transposed := range []bool{false, true} {
			for _, bias := range []bool{false, true} {
				x := tensor.New(c.n, c.cin, c.h, c.w).RandN(rng, 0, 1)
				op, w := Conv2D, tensor.New(c.cout, c.cin, c.k, c.k)
				if transposed {
					op, w = ConvTranspose2D, tensor.New(c.cin, c.cout, c.k, c.k)
				}
				w.RandN(rng, 0, 1)
				var b *Value
				if bias {
					b = Const(tensor.New(c.cout).RandN(rng, 0, 1))
				}
				want := naiveConv2D(x, w, b, transposed)
				got := op(Const(x), Const(w), b).T
				if !got.SameShape(want) {
					t.Fatalf("%+v transposed=%v: output shape %v, want %v", c, transposed, got.Shape, want.Shape)
				}
				if d := got.MaxAbsDiff(want); d > 1e-4 {
					t.Errorf("%+v transposed=%v bias=%v: graph op differs from the direct loops by %v",
						c, transposed, bias, d)
				}
			}
		}
	}
}

// TestConv2DFastNoBias checks that a nil bias adds nothing: the graph
// ops equal the bias-free direct loops.
func TestConv2DFastNoBias(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(1, 2, 5, 5).RandN(rng, 0, 1)
	w := tensor.New(2, 2, 3, 3).RandN(rng, 0, 1)
	if d := Conv2D(Const(x), Const(w), nil).T.MaxAbsDiff(naiveConv2D(x, w, nil, false)); d > 1e-4 {
		t.Fatalf("conv no-bias mismatch %v", d)
	}
	if d := ConvTranspose2D(Const(x), Const(w), nil).T.MaxAbsDiff(naiveConv2D(x, w, nil, true)); d > 1e-4 {
		t.Fatalf("transposed conv no-bias mismatch %v", d)
	}
}

// Property: the graph convolution and the direct loops agree for random
// small shapes.
func TestConv2DFastEquivalenceProperty(t *testing.T) {
	f := func(seed int64, kRaw, cRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := []int{1, 3, 5}[int(kRaw)%3]
		cin := int(cRaw)%3 + 1
		x := tensor.New(1, cin, 8, 8).RandN(rng, 0, 1)
		w := tensor.New(2, cin, k, k).RandN(rng, 0, 1)
		return Conv2D(Const(x), Const(w), nil).T.MaxAbsDiff(naiveConv2D(x, w, nil, false)) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestConv2DFastGradientsFlow gradchecks a convolution followed by a
// transposed one, DDnet's encoder-to-decoder pattern, so the gradient
// reaches the input through both backwards.
func TestConv2DFastGradientsFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randParam(rng, 1, 2, 6, 6)
	w1 := randParam(rng, 3, 2, 3, 3)
	b1 := randParam(rng, 3)
	w2 := randParam(rng, 3, 2, 3, 3) // (Cin, Cout, K, K)
	b2 := randParam(rng, 2)
	gradCheck(t, "conv2d+convT", []*Value{x, w1, b1, w2, b2}, func() *Value {
		return Mean(Square(ConvTranspose2D(Conv2D(x, w1, b1), w2, b2)))
	}, 2e-2)
}
