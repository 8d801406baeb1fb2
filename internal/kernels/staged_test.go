package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// The tiled im2col path ConvFused ran before the implicit GEMM, kept as
// its bit-for-bit oracle: stagePatchTile writes each column tile's
// patch panel with the zero padding materialized per tap, and
// convStaged multiplies it with gemmRow one output channel at a time,
// then runs the activation over the finished row.

// stagePatchTile writes the im2col panel for output pixels
// [c0, c0+n): row ((ci·KD+kz)·K+ky)·K+kx of the panel holds, for each
// output pixel, the input element that filter tap (ci, kz, ky, kx)
// reads, with zero padding materialized (KD = 1 and kz = 0 for a 2D
// layer). A column indexes the output as (oz, oy, ox); a row of the
// panel is staged one output image row (run) at a time, stepping
// (oz, oy) from run to run rather than dividing per run. Interior runs
// are bulk copy()s; only the borders go element-wise (through
// zeroFill).
func stagePatchTile(x, panel []float32, s ConvShape, c0, n, pstride int) {
	h, wd, k := s.H, s.W, s.K
	d, kd := s.depth()
	pad, padZ := k/2, kd/2
	oz0, oy0, ox0 := c0/(h*wd), c0/wd%h, c0%wd
	row := 0
	for ci := 0; ci < s.InC; ci++ {
		xbase := ci * d * h * wd
		for kz := 0; kz < kd; kz++ {
			dz := kz - padZ
			for ky := 0; ky < k; ky++ {
				dy := ky - pad
				for kx := 0; kx < k; kx++ {
					dx := kx - pad
					dst := panel[row*pstride : row*pstride+n]
					row++
					oz, oy, ox := oz0, oy0, ox0
					for j := 0; j < n; {
						run := min(wd-ox, n-j) // output pixels left on this image row
						seg := dst[j : j+run]
						// Valid input columns: 0 ≤ ox′+dx < wd for
						// ox′ ∈ [ox, ox+run); the clipped edges are zeros.
						lo, hi := max(ox, -dx), min(ox+run, wd-dx)
						iz, iy := oz+dz, oy+dy
						if iz < 0 || iz >= d || iy < 0 || iy >= h || hi <= lo {
							// All padding. (Skipping the copy matters when
							// hi <= lo — even an empty src[lo+dx:hi+dx]
							// would be out of bounds on the volume's last
							// row.)
							zeroFill(seg)
						} else {
							src := x[xbase+(iz*h+iy)*wd:]
							zeroFill(seg[:lo-ox])
							copy(seg[lo-ox:hi-ox], src[lo+dx:hi+dx])
							zeroFill(seg[hi-ox:])
						}
						j += run
						ox = 0
						if oy++; oy == h {
							oy, oz = 0, oz+1
						}
					}
				}
			}
		}
	}
}

func zeroFill(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

// stagedPanelFloats caps convStaged's panel at 256 Ki float32s, the
// staged path's L2 budget.
const stagedPanelFloats = 1 << 18

// convStaged is ConvFused as the staged path computed it: one worker,
// column tiles of at most stagedPanelFloats/r patch columns.
func convStaged(x, w, out []float32, s ConvShape, ep Epilogue) {
	d, kd := s.depth()
	r := s.InC * kd * s.K * s.K
	cols := d * s.H * s.W
	tile := max(64, stagedPanelFloats/r)
	panel := make([]float32, r*tile)
	offs := make([]int32, r)
	for t := range offs {
		offs[t] = int32(t * tile)
	}
	for c0 := 0; c0 < cols; c0 += tile {
		n := min(tile, cols-c0)
		stagePatchTile(x, panel, s, c0, n, tile)
		for co := 0; co < s.OutC; co++ {
			var bias float32
			if ep.Bias != nil {
				bias = ep.Bias[co]
			}
			dst := out[co*cols+c0 : co*cols+c0+n]
			gemmRow(w[co*r:(co+1)*r], panel, offs, dst, bias)
			if ep.Act {
				for k, v := range dst {
					if v < 0 {
						dst[k] = ep.Slope * v
					}
				}
			}
		}
	}
}

// TestConvFusedMatchesStagedOracle pins the implicit GEMM to the
// staged path bit for bit: the zero padding it reads from the padded
// input is the same exact zeros the panel staged, and every output
// element's taps are added in the same order. It sweeps K ∈ {1, 3, 5,
// 7} × D ∈ {0 (2D), 1, 2, 3} × H×W ∈ {1×1, 3×5, 7×9, 17×19, 64×64},
// each with InC ∈ {1, 3, 8} × OutC ∈ {1, 2, 3, 4, 5, 6, 9} (whole
// channel quads, leftovers, and both), on 1, 2 and 4 workers with the
// zero, bias and bias+LeakyReLU epilogues, with the AVX block kernels
// on and (where the CPU has them) off. Shapes of up to 1024 output
// pixels run every worker × epilogue pair; the larger ones one pair
// each, in turn, so the sweep stays seconds long.
func TestConvFusedMatchesStagedOracle(t *testing.T) {
	avx := []bool{false}
	if useAVX {
		orig := useAVX
		t.Cleanup(func() { useAVX = orig })
		avx = append(avx, true)
	}
	type run struct {
		workers int
		ep      string
	}
	var runs []run
	for _, workers := range []int{1, 2, 4} {
		for _, ep := range []string{"zero", "bias", "bias+act"} {
			runs = append(runs, run{workers, ep})
		}
	}
	rng := rand.New(rand.NewSource(29))
	turn := 0
	for _, k := range []int{1, 3, 5, 7} {
		for _, d := range []int{0, 1, 2, 3} {
			for _, hw := range [][2]int{{1, 1}, {3, 5}, {7, 9}, {17, 19}, {64, 64}} {
				for _, inC := range []int{1, 3, 8} {
					for _, outC := range []int{1, 2, 3, 4, 5, 6, 9} {
						s := ConvShape{InC: inC, D: d, H: hw[0], W: hw[1], OutC: outC, K: k}
						x := gemmValues(rng, "plain", s.InLen())
						w := gemmValues(rng, "plain", s.WeightLen())
						bias := gemmValues(rng, "plain", s.OutC)
						these := runs
						if s.OutLen()/outC > 1024 {
							these = runs[turn%len(runs) : turn%len(runs)+1]
							turn++
						}
						want := map[string][]float32{}
						for _, rn := range these {
							ep := Epilogue{}
							if rn.ep != "zero" {
								ep = Epilogue{Bias: bias, Act: rn.ep == "bias+act", Slope: 0.2}
							}
							if want[rn.ep] == nil {
								want[rn.ep] = make([]float32, s.OutLen())
								convStaged(x, w, want[rn.ep], s, ep)
							}
							for _, on := range avx {
								useAVX = on
								got := gemmValues(rng, "plain", s.OutLen())
								ConvCompact(x, w, got, s, rn.workers, ep)
								for i, v := range want[rn.ep] {
									if math.Float32bits(got[i]) != math.Float32bits(v) {
										t.Fatalf("%+v workers=%d %s avx=%v: element %d = %v, staged %v",
											s, rn.workers, rn.ep, on, i, got[i], v)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}
