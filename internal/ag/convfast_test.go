package ag

import (
	"math/rand"
	"testing"
	"testing/quick"

	"computecovid19/internal/tensor"
)

func TestConv2DFastMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		n, cin, h, w, cout, k, stride, pad int
	}{
		{1, 1, 8, 8, 4, 3, 1, 1},
		{2, 3, 10, 12, 5, 5, 1, 2},
		{1, 2, 9, 9, 3, 3, 2, 1},
		{1, 4, 6, 6, 2, 1, 1, 0},
		{1, 2, 7, 7, 3, 7, 1, 3},
	}
	for _, c := range cases {
		x := Const(tensor.New(c.n, c.cin, c.h, c.w).RandN(rng, 0, 1))
		w := Const(tensor.New(c.cout, c.cin, c.k, c.k).RandN(rng, 0, 1))
		b := Const(tensor.New(c.cout).RandN(rng, 0, 1))
		cfg := Conv2DConfig{Stride: c.stride, Padding: c.pad}
		direct := Conv2D(x, w, b, cfg)
		fast := Conv2DFast(x, w, b, cfg)
		if !direct.T.SameShape(fast.T) {
			t.Fatalf("%+v: shape mismatch %v vs %v", c, direct.T.Shape, fast.T.Shape)
		}
		if !sameConvShape(c.k, c.k, c.stride, c.pad) {
			// Not a kernel-ladder shape: the fast op is the direct one.
			if !sameBits(direct.T, fast.T) {
				t.Fatalf("%+v: fallback differs from direct", c)
			}
			continue
		}
		if d := direct.T.MaxAbsDiff(fast.T); d > 1e-4 {
			t.Fatalf("%+v: kernel rung differs from direct by %v", c, d)
		}
	}
}

func TestConv2DFastGradientsFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randParam(rng, 1, 2, 6, 6)
	w := randParam(rng, 3, 2, 3, 3)
	b := randParam(rng, 3)
	gradCheck(t, "conv2dfast", []*Value{x, w, b}, func() *Value {
		return Mean(Square(Conv2DFast(x, w, b, Conv2DConfig{Stride: 1, Padding: 1})))
	}, 2e-2)
}

func TestConv2DFastNoBias(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := Const(tensor.New(1, 2, 5, 5).RandN(rng, 0, 1))
	w := Const(tensor.New(2, 2, 3, 3).RandN(rng, 0, 1))
	cfg := Conv2DConfig{Stride: 1, Padding: 1}
	if d := Conv2D(x, w, nil, cfg).T.MaxAbsDiff(Conv2DFast(x, w, nil, cfg).T); d > 1e-4 {
		t.Fatalf("no-bias mismatch %v", d)
	}
}

// Property: fast and direct agree for random small shapes.
func TestConv2DFastEquivalenceProperty(t *testing.T) {
	f := func(seed int64, kRaw, cRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := []int{1, 3, 5}[int(kRaw)%3]
		cin := int(cRaw)%3 + 1
		x := Const(tensor.New(1, cin, 8, 8).RandN(rng, 0, 1))
		w := Const(tensor.New(2, cin, k, k).RandN(rng, 0, 1))
		cfg := Conv2DConfig{Stride: 1, Padding: k / 2}
		return Conv2D(x, w, nil, cfg).T.MaxAbsDiff(Conv2DFast(x, w, nil, cfg).T) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkConv2DDirectVsFast(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := Const(tensor.New(1, 16, 64, 64).RandN(rng, 0, 1))
	w := Const(tensor.New(16, 16, 5, 5).RandN(rng, 0, 1))
	cfg := Conv2DConfig{Stride: 1, Padding: 2}
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Conv2D(x, w, nil, cfg)
		}
	})
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Conv2DFast(x, w, nil, cfg)
		}
	})
}
