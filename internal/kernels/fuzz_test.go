package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// directConv is the direct convolution nest: convBaseline's loops with
// a depth axis added and each output's sum seeded with its bias, the
// order ConvFused adds in. Taps in the padding are skipped; on finite
// values that gives the bits of adding their exact zeros.
func directConv(x, w []float32, s ConvShape, ep Epilogue) []float32 {
	d, kd := s.depth()
	pz, p := (kd-1)/2, s.K/2
	out := make([]float32, s.OutLen())
	for co := 0; co < s.OutC; co++ {
		for oz := 0; oz < d; oz++ {
			for oy := 0; oy < s.H; oy++ {
				for ox := 0; ox < s.W; ox++ {
					acc := ep.bias(co)
					for ci := 0; ci < s.InC; ci++ {
						for kz := 0; kz < kd; kz++ {
							for ky := 0; ky < s.K; ky++ {
								for kx := 0; kx < s.K; kx++ {
									iz, iy, ix := oz-pz+kz, oy-p+ky, ox-p+kx
									if iz < 0 || iz >= d || iy < 0 || iy >= s.H || ix < 0 || ix >= s.W {
										continue
									}
									acc += x[((ci*d+iz)*s.H+iy)*s.W+ix] * w[(((co*s.InC+ci)*kd+kz)*s.K+ky)*s.K+kx]
								}
							}
						}
					}
					if ep.Act && acc < 0 {
						acc *= ep.Slope
					}
					out[((co*d+oz)*s.H+oy)*s.W+ox] = acc
				}
			}
		}
	}
	return out
}

// poisonBits marks every float outside what ConvFused may write.
const poisonBits = 0x7fc0dead

// FuzzConvFused holds ConvFused to the direct nest bit for bit over
// K ∈ {1, 3, 5, 7}, 2D and 3D layers, widths that reach the 16-column
// blocks, the row tails and the blocks that span rows, 1 to 12 output
// channels (every block kernel and each mix of them), 1, 2 and 4
// workers, the AVX blocks on and off, and a compact or halo-padded
// output. The padded input's spare capacity and the output's halo and
// spare capacity are NaN-poisoned: a read past the input that reached
// an output, or a write outside the output's interior (a spanning
// block's halo lane copied out), shows up. For 2D layers with the zero
// epilogue the nest is also held to convBaseline itself. The seeds
// after the first six are the classifier's served shapes: its growth
// convolutions (6 channels, 3³) and transitions (10 and 11 channels,
// 1³) at depths 1, 2 and 4 and rows 4, 8, 16 and 32 wide; the last two
// have blocks that span from one plane into the next, of a padded
// output.
func FuzzConvFused(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0), uint8(31), uint8(63), uint8(2), uint8(3), uint8(0), uint8(0), true)
	f.Add(int64(2), uint8(0), uint8(0), uint8(7), uint8(20), uint8(4), uint8(8), uint8(1), uint8(1), false)
	f.Add(int64(3), uint8(3), uint8(0), uint8(4), uint8(36), uint8(0), uint8(4), uint8(2), uint8(0), true)
	f.Add(int64(4), uint8(1), uint8(2), uint8(5), uint8(16), uint8(1), uint8(5), uint8(1), uint8(1), true)
	f.Add(int64(5), uint8(2), uint8(3), uint8(2), uint8(7), uint8(2), uint8(6), uint8(2), uint8(2), false)
	f.Add(int64(6), uint8(0), uint8(1), uint8(3), uint8(15), uint8(3), uint8(1), uint8(0), uint8(2), true)
	f.Add(int64(7), uint8(1), uint8(4), uint8(7), uint8(31), uint8(4), uint8(5), uint8(0), uint8(0), true)
	f.Add(int64(8), uint8(1), uint8(2), uint8(15), uint8(15), uint8(4), uint8(5), uint8(1), uint8(1), true)
	f.Add(int64(9), uint8(1), uint8(1), uint8(7), uint8(7), uint8(4), uint8(5), uint8(2), uint8(1), true)
	f.Add(int64(10), uint8(1), uint8(4), uint8(3), uint8(3), uint8(4), uint8(5), uint8(0), uint8(1), true)
	f.Add(int64(11), uint8(0), uint8(4), uint8(15), uint8(31), uint8(4), uint8(9), uint8(1), uint8(1), true)
	f.Add(int64(12), uint8(0), uint8(2), uint8(15), uint8(15), uint8(4), uint8(10), uint8(0), uint8(0), false)
	f.Add(int64(13), uint8(1), uint8(1), uint8(7), uint8(7), uint8(4), uint8(10), uint8(1), uint8(1), true)
	f.Add(int64(14), uint8(1), uint8(2), uint8(3), uint8(3), uint8(3), uint8(9), uint8(2), uint8(0), false)
	f.Add(int64(15), uint8(0), uint8(1), uint8(7), uint8(7), uint8(4), uint8(5), uint8(0), uint8(1), true)
	f.Add(int64(16), uint8(1), uint8(4), uint8(15), uint8(15), uint8(2), uint8(5), uint8(1), uint8(1), false)
	f.Add(int64(17), uint8(0), uint8(3), uint8(2), uint8(3), uint8(4), uint8(10), uint8(1), uint8(1), true)
	f.Add(int64(18), uint8(1), uint8(4), uint8(2), uint8(1), uint8(2), uint8(5), uint8(0), uint8(2), true)
	orig := useAVX
	f.Fuzz(func(t *testing.T, seed int64, ki, di, hi, wi, ci, oi, wk, halo uint8, avx bool) {
		defer func() { useAVX = orig }()
		useAVX = avx && orig
		s := ConvShape{InC: 1 + int(ci)%5, D: int(di) % 5, H: 1 + int(hi)%24, W: 1 + int(wi)%48,
			OutC: 1 + int(oi)%12, K: []int{1, 3, 5, 7}[ki%4], Halo: int(halo) % 3}
		workers := []int{1, 2, 4}[wk%3]
		rng := rand.New(rand.NewSource(seed))
		x := gemmValues(rng, "plain", s.InLen())
		w := gemmValues(rng, "plain", s.WeightLen())
		ep := Epilogue{}
		if seed%2 == 0 {
			ep = Epilogue{Bias: gemmValues(rng, "plain", s.OutC), Act: true, Slope: 0.1}
		}
		want := directConv(x, w, s, ep)
		if s.D == 0 && ep.Bias == nil {
			base := make([]float32, s.OutLen())
			convBaseline(x, w, base, s, 1)
			requireBits(t, s, "the direct nest against convBaseline", want, base)
		}

		const slack = 64
		poison := math.Float32frombits(poisonBits)
		xbuf := make([]float32, s.padLen()+slack)
		for i := range xbuf {
			xbuf[i] = poison
		}
		xp := xbuf[:s.padLen()]
		Pad(x, xp, s)
		do, ho, wo := s.grid(s.Halo)
		obuf := make([]float32, s.OutC*do*ho*wo+slack)
		for i := range obuf {
			obuf[i] = poison
		}
		ConvFused(xp, w, obuf[:s.OutC*do*ho*wo], s, workers, ep)

		got := make([]float32, s.OutLen())
		for q := 0; q < s.OutLen(); q++ {
			co, px := q/(s.OutLen()/s.OutC), q%(s.OutLen()/s.OutC)
			i := co*do*ho*wo + s.at(px, s.Halo, s.Halo)
			got[q] = obuf[i]
			obuf[i] = poison
		}
		requireBits(t, s, "ConvFused", got, want)
		for i, v := range obuf {
			if math.Float32bits(v) != poisonBits {
				t.Fatalf("%+v: ConvFused wrote element %d, outside the output's interior", s, i)
			}
		}
	})
}

// requireBits fails unless got matches want bit for bit.
func requireBits(t *testing.T, s ConvShape, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%+v: %s element %d = %v, want %v", s, what, i, got[i], want[i])
		}
	}
}
