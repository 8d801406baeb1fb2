package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// TestPlaneOpBadOperandPanicsOnCaller feeds the plane ops operands that
// do not fit their shape, on 2 workers: each must panic with its own
// message on the calling goroutine, where it can be recovered, and not
// on a pool worker (which would take the process down) or inside an
// assembly loop (which would read or write past the operand without a
// panic at all). Every shape has several planes or channels, so without
// the check the work would reach the pool.
func TestPlaneOpBadOperandPanicsOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const c, h, w = 4, 8, 12
	x, up := make([]float32, c*h*w), make([]float32, c*4*h*w)
	ty, tx := NewBilinearTable(h, 2*h), NewBilinearTable(w, 2*w)
	bad := &BilinearTable{Lo: []int{0, h}, Hi: []int{0, h}, Frac: []float32{0, 0}}
	stats := func(n int) []float32 { return make([]float32, n) }
	pool := PoolShape{C: c, H: h, W: w, K: 3, S: 2, P: 1}
	for _, tc := range []struct {
		op, name string
		run      func()
	}{
		{"MaxPool", "short out", func() { MaxPool(x, up[:c*4*6-1], nil, pool, 2) }},
		{"MaxPool", "short argmax", func() { MaxPool(x, up, make([]int32, 1), pool, 2) }},
		{"Upsample", "short x", func() { Upsample(x[:len(x)-1], up, c, h, w, 0, ty, tx, 2) }},
		{"Upsample", "short out", func() { Upsample(x, up[:len(up)-1], c, h, w, 0, ty, tx, 2) }},
		{"Upsample", "table for a taller plane", func() { Upsample(x, up, c, h/2, 2*w, 0, ty, tx, 2) }},
		{"Upsample", "source index out of range", func() { Upsample(x, up, c, h, w, 0, bad, tx, 2) }},
		{"Upsample", "zero planes", func() { Upsample(x, up, 0, h, w, 0, ty, tx, 2) }},
		{"BatchNormInfer", "short out", func() {
			BatchNormInfer(x, x[:len(x)-1], c, h*w, stats(c), stats(c), stats(c), stats(c), 1e-5, 2)
		}},
		{"BatchNormInfer", "short variance", func() {
			BatchNormInfer(x, x, c, h*w, stats(c), stats(c), stats(c), stats(c-1), 1e-5, 2)
		}},
		{"BatchNormInfer", "channels do not tile x", func() {
			BatchNormInfer(x, x, c+1, h*w, stats(c+1), stats(c+1), stats(c+1), stats(c+1), 1e-5, 2)
		}},
		{"BNActInfer", "short x", func() { BNActInfer(x[:len(x)-1], x, c, h*w, stats(c), stats(c), 0.01, 2) }},
		{"BNActInfer", "short out", func() { BNActInfer(x, up[:len(x)-1], c, h*w, stats(c), stats(c), 0.01, 2) }},
		{"BNActInfer", "short shift", func() { BNActInfer(x, x, c, h*w, stats(c), stats(c-1), 0.01, 2) }},
	} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			tc.run()
			return ""
		}()
		if !strings.HasPrefix(msg, "kernels: "+tc.op) {
			t.Errorf("%s %s: recovered %q, want %s's operand panic", tc.op, tc.name, msg, tc.op)
		}
	}
}

// TestBNActInferMatchesScalarLoop holds BNActInfer — bnActRow's vector
// step, then the Go loop for the tail — to the scalar loop bit for bit:
// planes of 1 to 13 cells and of 64 (every tail of the four-wide step,
// and planes too short for a step), inputs with NaN, ±0, ±Inf,
// subnormals and ±MaxFloat32 among plain values, a zero and a −0 shift,
// slopes 0.01 and 0 (where −Inf times the slope is NaN), out of place
// and in place, on 1, 2 and 4 workers.
func TestBNActInferMatchesScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), 0, math.SmallestNonzeroFloat32, -1e-40,
		math.MaxFloat32, -math.MaxFloat32,
	}
	const c = 5
	for _, hw := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 64} {
		for _, slope := range []float32{0.01, 0} {
			x := gemmValues(rng, "plain", c*hw)
			for i := range x {
				if i%3 == 0 {
					x[i] = specials[rng.Intn(len(specials))]
				}
			}
			scale, shift := gemmValues(rng, "plain", c), gemmValues(rng, "plain", c)
			shift[0], shift[1] = 0, float32(math.Copysign(0, -1))
			want := make([]float32, c*hw)
			for i, v := range x {
				v = scale[i/hw]*v + shift[i/hw]
				if v < 0 {
					v = slope * v
				}
				want[i] = v
			}
			for _, workers := range []int{1, 2, 4} {
				for _, inPlace := range []bool{false, true} {
					got := make([]float32, c*hw)
					if inPlace {
						copy(got, x)
						BNActInfer(got, got, c, hw, scale, shift, slope, workers)
					} else {
						BNActInfer(x, got, c, hw, scale, shift, slope, workers)
					}
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("hw=%d slope=%v workers=%d in place %v: element %d of x=%v is %v (%#08x), scalar loop %v (%#08x)",
								hw, slope, workers, inPlace, i, x[i], got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// BenchmarkPlaneOps times the pool and up-sample a served scan runs,
// one op on one worker, at the bench shapes (8×64×64 scans): DDnet's
// first 3×3/stride-2 pool over 8 planes of 64×64, the classifier's
// first 2×2×2/stride-2 pool over 8 volumes of 8×64×64, and DDnet's
// last ×2 up-sample of 8 planes of 32×32.
func BenchmarkPlaneOps(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	fill := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = rng.Float32() - 0.5
		}
		return s
	}
	for _, c := range []struct {
		name string
		s    PoolShape
	}{
		{"pool2d_8x64x64", PoolShape{C: 8, H: 64, W: 64, K: 3, S: 2, P: 1}},
		{"pool3d_8x8x64x64", PoolShape{C: 8, D: 8, H: 64, W: 64, K: 2, S: 2}},
	} {
		d, _, _, _ := c.s.depth()
		od, oh, ow := c.s.Out()
		x, out := fill(c.s.C*d*c.s.H*c.s.W), make([]float32, c.s.C*od*oh*ow)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MaxPool(x, out, nil, c.s, 1)
			}
		})
	}
	const c, h, w = 8, 32, 32
	x, out := fill(c*h*w), make([]float32, c*4*h*w)
	ty, tx := NewBilinearTable(h, 2*h), NewBilinearTable(w, 2*w)
	b.Run("upsample_8x32x32", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Upsample(x, out, c, h, w, 0, ty, tx, 1)
		}
	})
}
