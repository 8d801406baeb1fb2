package ag

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"computecovid19/internal/kernels"
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

// fuzzPoolValues maps a fuzz byte to a pool input: NaNs of both signs,
// ±Inf, ±0, ties and a subnormal, so most windows hold ties and
// non-finite taps.
var fuzzPoolValues = [16]float32{
	float32(math.NaN()), math.Float32frombits(0xffc00001), float32(math.Inf(-1)), float32(math.Inf(1)),
	float32(math.Copysign(0, -1)), 0, -3, -2, -1, 1, 2, 3, 0.5, -0.5, math.Float32frombits(1), math.MaxFloat32,
}

// FuzzMaxPool checks kernels.MaxPool against directMaxPool, values bit
// for bit and the recovered argmax exactly, on 2 workers, over the
// shape (K 1–4, S 1–3, P 0–2, D 0–5 with 0 the 2D pool, H 1–40, W 1–70)
// and two planes of the values the bytes select; no bytes give all-NaN
// planes.
func FuzzMaxPool(f *testing.F) {
	// k, s and h, w are stored one below K, S and H, W.
	f.Add(uint8(2), uint8(1), uint8(1), uint8(0), uint8(15), uint8(18), []byte{0, 4, 5, 2, 1, 9, 4, 5, 3}) // DDnet's pool
	f.Add(uint8(1), uint8(1), uint8(0), uint8(4), uint8(7), uint8(63), []byte{5, 4, 2, 0, 10, 10})         // the classifier's
	f.Add(uint8(2), uint8(1), uint8(1), uint8(3), uint8(4), uint8(20), []byte{})                           // all NaN
	f.Add(uint8(2), uint8(1), uint8(1), uint8(0), uint8(8), uint8(33), []byte{0, 1, 2})                    // NaN and −Inf only
	f.Add(uint8(0), uint8(0), uint8(2), uint8(2), uint8(2), uint8(5), []byte{4, 5, 11})                    // padding-only windows
	f.Add(uint8(3), uint8(2), uint8(2), uint8(5), uint8(39), uint8(69), []byte{4, 5, 4, 5, 6})
	f.Fuzz(func(t *testing.T, k, s, p, d, h, w uint8, vals []byte) {
		sh := kernels.PoolShape{C: 2, D: int(d % 6), H: 1 + int(h%40), W: 1 + int(w%70),
			K: 1 + int(k%4), S: 1 + int(s%3), P: int(p % 3)}
		od, oh, ow := sh.Out()
		if od <= 0 || oh <= 0 || ow <= 0 {
			return
		}
		depth, kd, sd, pd := max(sh.D, 1), sh.K, sh.S, sh.P
		if sh.D == 0 {
			kd, sd, pd = 1, 1, 0
		}
		x := make([]float32, sh.C*depth*sh.H*sh.W)
		for i := range x {
			x[i] = fuzzPoolValues[0]
			if len(vals) > 0 {
				x[i] = fuzzPoolValues[vals[i%len(vals)]%16]
			}
		}
		want, wantArg := directMaxPool(x, sh.C, depth, sh.H, sh.W, kd, sd, pd, sh.K, sh.S, sh.P)
		out, argmax := make([]float32, len(want)), make([]int32, len(want))
		kernels.MaxPool(x, out, argmax, sh, 2)
		for i := range want {
			if math.Float32bits(out[i]) != math.Float32bits(want[i]) || argmax[i] != wantArg[i] {
				t.Fatalf("%+v output %d: %v at %d, direct nest %v at %d", sh, i, out[i], argmax[i], want[i], wantArg[i])
			}
		}
	})
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

// The oracles' extents: every small size, where windows clip on both
// sides of short rows, and wide ones, which reach the four-lane vector
// step of each pass with every tail residue (16–23), an odd width past
// two steps (33) and the served width (64).
var (
	smallSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	wideSizes  = []int{16, 17, 18, 19, 20, 21, 22, 23, 33, 64}
)

// TestMaxPoolMatchesDirectNest pins MaxPool2D and MaxPool3D — graph and
// eval forwards, and the argmax the backward follows — to directMaxPool
// bit for bit, over every pooling shape the networks use and some they
// do not, on 1, 2 and 4 procs: extents 1–9 on every axis, wide planes
// (both axes from wideSizes), and wide volumes (depths 1–5, heights 3,
// 16, 17 and 33, widths from wideSizes). The argmax is read through the
// backward: each output's random gradient lands on the input its
// forward recorded, in output order, so the input gradient equals the
// oracle's scatter bit for bit only when every recorded argmax is the
// oracle's.
func TestMaxPoolMatchesDirectNest(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, cfg := range []Pool2DConfig{{3, 2, 1}, {2, 2, 0}, {3, 1, 1}, {1, 1, 0}, {2, 1, 0}} {
		for _, g := range []struct {
			rank    int
			d, h, w []int
		}{
			{4, []int{1}, smallSizes, smallSizes},
			{4, []int{1}, wideSizes, wideSizes},
			{5, smallSizes, smallSizes, smallSizes},
			{5, []int{1, 2, 3, 4, 5}, []int{3, 16, 17, 33}, wideSizes},
		} {
			for _, d := range g.d {
				for _, h := range g.h {
					for _, w := range g.w {
						checkMaxPool(t, rng, g.rank, cfg, d, h, w)
					}
				}
			}
		}
	}
}

// checkMaxPool runs one TestMaxPoolMatchesDirectNest case: a rank-4
// (2, 3, h, w) or rank-5 (2, 3, d, h, w) input.
func checkMaxPool(t *testing.T, rng *rand.Rand, rank int, cfg Pool2DConfig, d, h, w int) {
	t.Helper()
	const n, c = 2, 3
	k, s, p := cfg.Kernel, cfg.Stride, cfg.Padding
	if d+2*p < k || h+2*p < k || w+2*p < k {
		return // the window does not fit: the ops panic
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
		ev, _ := maxPool(x, cfg, procs)
		xv := Param(x)
		var y *Value
		if rank == 4 {
			y = MaxPool2D(xv, cfg)
		} else {
			y = MaxPool3D(xv, cfg)
		}
		if !bitsEqual(ev.Data, want) {
			t.Errorf("rank %d %+v x %v on %d procs: the kernel on %d workers differs from the direct nest",
				rank, cfg, shape, procs, procs)
		}
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

// upsamplePoison fills a padded up-sample output's halo and slack: a
// NaN payload no arithmetic produces.
const upsamplePoison = 0x7fc0dead

// checkUpsampleHalo runs kernels.Upsample on workers workers into
// planes padded by halo cells, the whole buffer and 16 floats of slack
// after it poisoned first, and checks the interior against want (the
// compact direct formula: bit for bit, or NaN where it is NaN, never
// the poison) and that every other float still holds the poison.
func checkUpsampleHalo(t *testing.T, x, want []float32, planes, h, w, scale, halo, workers int) {
	t.Helper()
	oh, ow := h*scale, w*scale
	ph, pw := oh+2*halo, ow+2*halo
	dst := make([]float32, planes*ph*pw+16)
	for i := range dst {
		dst[i] = math.Float32frombits(upsamplePoison)
	}
	kernels.Upsample(x, dst, planes, h, w, halo, kernels.NewBilinearTable(h, oh), kernels.NewBilinearTable(w, ow), workers)
	for i, g := range dst {
		pl, y, xx := i/(ph*pw), i%(ph*pw)/pw-halo, i%pw-halo
		if pl >= planes || y < 0 || y >= oh || xx < 0 || xx >= ow {
			if math.Float32bits(g) != upsamplePoison {
				t.Fatalf("scale %d %d×%d halo %d on %d workers: float %d outside the interior was written (%v)",
					scale, h, w, halo, workers, i, g)
			}
			continue
		}
		e := want[(pl*oh+y)*ow+xx]
		if math.Float32bits(g) == upsamplePoison || (g == g || e == e) && math.Float32bits(g) != math.Float32bits(e) {
			t.Fatalf("scale %d %d×%d halo %d on %d workers: output (%d, %d, %d) = %v, direct formula %v",
				scale, h, w, halo, workers, pl, y, xx, g, e)
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

// TestUpsampleMatchesDirectFormula pins UpsampleBilinear2D, and
// kernels.Upsample writing into planes padded by a halo of 0, 1 or 2
// cells, to directUpsample for scales 1–3 and 1, 2 and 4 procs (or
// workers), on extents 1–9
// and on wide planes (both axes from wideSizes, which reach the vector
// steps with every tail residue), with inputs holding ties, ±Inf and
// NaN. Every non-NaN result must match bit for bit; a NaN must stay
// NaN, but its sign and payload depend on which operand order the
// compiler or the vector step gives each subtraction and so are not
// compared. The padded output's halo and trailing slack hold a poison
// NaN payload that must survive: nothing outside the interior is
// written.
func TestUpsampleMatchesDirectFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, c = 2, 3
	for _, scale := range []int{1, 2, 3} {
		for _, sizes := range [][]int{smallSizes, wideSizes} {
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
						for _, halo := range []int{0, 1, 2} {
							checkUpsampleHalo(t, x.Data, want, n*c, h, w, scale, halo, procs)
						}
					}
				}
			}
		}
	}
}
