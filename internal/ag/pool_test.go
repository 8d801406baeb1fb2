package ag

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"computecovid19/internal/memplan"
	"computecovid19/internal/tensor"
)

// poolValue draws from a small set so windows hold ties (including
// −0 against +0), ±Inf and NaN often, all-NaN windows included.
func poolValue(rng *rand.Rand) float32 {
	switch r := rng.Intn(10); {
	case r < 2:
		return float32(math.NaN())
	case r == 2:
		return float32(math.Inf(-1))
	case r == 3:
		return float32(math.Inf(1))
	case r == 4:
		return float32(math.Copysign(0, -1))
	default:
		return float32(r - 6)
	}
}

func poolInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = poolValue(rng)
	}
	return x
}

// directMaxPool is the oracle: one three-axis nest over planes of
// d×h×w cells with a kd×k×k window (stride sd, s; padding pd, p),
// scanning each window in (kz, ky, kx) order and keeping a value only
// when it is strictly larger than the best so far. So a tie goes to
// the earliest tap, NaN never wins, and a window of NaN, −Inf and
// padding alone gives −Inf with argmax −1.
func directMaxPool(x []float32, planes, d, h, w, kd, sd, pd, k, s, p int) ([]float32, []int32) {
	od, oh, ow := (d+2*pd-kd)/sd+1, (h+2*p-k)/s+1, (w+2*p-k)/s+1
	out := make([]float32, planes*od*oh*ow)
	argmax := make([]int32, len(out))
	o := 0
	for pl := 0; pl < planes; pl++ {
		for oz := 0; oz < od; oz++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best, bi := float32(math.Inf(-1)), int32(-1)
					for kz := 0; kz < kd; kz++ {
						for ky := 0; ky < k; ky++ {
							for kx := 0; kx < k; kx++ {
								iz, iy, ix := oz*sd-pd+kz, oy*s-p+ky, ox*s-p+kx
								if iz < 0 || iz >= d || iy < 0 || iy >= h || ix < 0 || ix >= w {
									continue
								}
								i := ((pl*d+iz)*h+iy)*w + ix
								if x[i] > best {
									best, bi = x[i], int32(i)
								}
							}
						}
					}
					out[o], argmax[o] = best, bi
					o++
				}
			}
		}
	}
	return out, argmax
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestMaxPoolMatchesDirectNest pins MaxPool2D and MaxPool3D — graph and
// eval forwards, and the argmax the backward follows — to directMaxPool
// bit for bit, over every pooling shape the networks use and some they
// do not, extents 1–9 on every axis, and 1, 2 and 4 procs. The
// argmax is read through the backward: each output's random gradient
// lands on the input its forward recorded, in output order, so the
// input gradient equals the oracle's scatter bit for bit only when
// every recorded argmax is the oracle's.
func TestMaxPoolMatchesDirectNest(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mem := memplan.New()
	const n, c = 2, 3
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, cfg := range []Pool2DConfig{{3, 2, 1}, {2, 2, 0}, {3, 1, 1}, {1, 1, 0}, {2, 1, 0}} {
		k, s, p := cfg.Kernel, cfg.Stride, cfg.Padding
		for _, rank := range []int{4, 5} {
			depths := sizes
			if rank == 4 {
				depths = []int{1}
			}
			for _, d := range depths {
				for _, h := range sizes {
					for _, w := range sizes {
						if d+2*p < k || h+2*p < k || w+2*p < k {
							continue // the window does not fit: the ops panic
						}
						shape := []int{n, c, h, w}
						kd, sd, pd := 1, 1, 0
						if rank == 5 {
							shape = []int{n, c, d, h, w}
							kd, sd, pd = k, s, p
						}
						x := poolInput(rng, shape...)
						want, argmax := directMaxPool(x.Data, n*c, d, h, w, kd, sd, pd, k, s, p)
						gy := make([]float32, len(want))
						for i := range gy {
							gy[i] = float32(rng.NormFloat64())
						}
						wantGrad := make([]float32, len(x.Data))
						for i, idx := range argmax {
							if idx >= 0 {
								wantGrad[idx] += gy[i]
							}
						}
						for _, procs := range []int{1, 2, 4} {
							runtime.GOMAXPROCS(procs)
							sc := mem.NewScope()
							var ev *tensor.Tensor
							xv := Param(x)
							var y *Value
							if rank == 4 {
								ev = EvalMaxPool2D(sc, x, cfg, procs)
								y = MaxPool2D(xv, cfg)
							} else {
								ev = EvalMaxPool3D(sc, x, cfg)
								y = MaxPool3D(xv, cfg)
							}
							if !bitsEqual(ev.Data, want) {
								t.Errorf("rank %d %+v x %v on %d procs: eval forward differs from the direct nest",
									rank, cfg, shape, procs)
							}
							sc.Close()
							if !bitsEqual(y.T.Data, want) {
								t.Errorf("rank %d %+v x %v on %d procs: graph forward differs from the direct nest",
									rank, cfg, shape, procs)
							}
							Sum(Mul(y, Const(tensor.FromSlice(gy, y.T.Shape...)))).Backward()
							if !bitsEqual(xv.Grad.Data, wantGrad) {
								t.Errorf("rank %d %+v x %v on %d procs: backward does not follow the direct nest's argmax",
									rank, cfg, shape, procs)
							}
						}
					}
				}
			}
		}
	}
}

// directUpsample is the oracle for UpsampleBilinear2D: each output
// pixel computes its own half-pixel source coordinates, clamped at the
// borders, and blends its four neighbours along x, then along y.
func directUpsample(x []float32, planes, h, w, scale int) []float32 {
	oh, ow := h*scale, w*scale
	src := func(d, in, out int) (lo, hi int, frac float32) {
		c := (float64(d)+0.5)*(float64(in)/float64(out)) - 0.5
		if c < 0 {
			c = 0
		}
		lo = min(int(math.Floor(c)), in-1)
		hi = min(lo+1, in-1)
		return lo, hi, float32(c - float64(lo))
	}
	out := make([]float32, planes*oh*ow)
	for pl := 0; pl < planes; pl++ {
		base := pl * h * w
		for oy := 0; oy < oh; oy++ {
			y0, y1, wy := src(oy, h, oh)
			for ox := 0; ox < ow; ox++ {
				x0, x1, wx := src(ox, w, ow)
				v00, v01 := x[base+y0*w+x0], x[base+y0*w+x1]
				v10, v11 := x[base+y1*w+x0], x[base+y1*w+x1]
				top := v00 + wx*(v01-v00)
				bot := v10 + wx*(v11-v10)
				out[(pl*oh+oy)*ow+ox] = top + wy*(bot-top)
			}
		}
	}
	return out
}

// TestUpsampleMatchesDirectFormula pins UpsampleBilinear2D to
// directUpsample for scales 1–3, extents 1–9 and 1, 2 and 4 procs,
// on inputs with ties, ±Inf and NaN. Every non-NaN result must match
// bit for bit; a NaN must stay NaN, but its sign and payload depend on
// which operand order the compiler gives each subtraction and so are
// not compared.
func TestUpsampleMatchesDirectFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, c = 2, 3
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, scale := range []int{1, 2, 3} {
		for _, h := range sizes {
			for _, w := range sizes {
				x := poolInput(rng, n, c, h, w)
				for i := range x.Data {
					if rng.Intn(2) == 0 {
						x.Data[i] = float32(rng.NormFloat64())
					}
				}
				want := directUpsample(x.Data, n*c, h, w, scale)
				for _, procs := range []int{1, 2, 4} {
					runtime.GOMAXPROCS(procs)
					got := UpsampleBilinear2D(Const(x), scale).T.Data
					for i := range want {
						g, e := got[i], want[i]
						if g != g && e != e {
							continue
						}
						if math.Float32bits(g) != math.Float32bits(e) {
							t.Fatalf("scale %d %d×%d on %d procs: output %d = %v, direct formula %v",
								scale, h, w, procs, i, g, e)
						}
					}
				}
			}
		}
	}
}
