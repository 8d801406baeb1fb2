package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gemmRowScalar is gemmRow with only its Go loops: the order every
// architecture's result must reproduce bit for bit.
func gemmRowScalar(wrow, x []float32, offs []int32, dst []float32, bias float32) {
	for j := range dst {
		dst[j] = bias
	}
	n := len(dst)
	r := len(wrow)
	ri := 0
	for ; ri+4 <= r; ri += 4 {
		a0, a1, a2, a3 := wrow[ri], wrow[ri+1], wrow[ri+2], wrow[ri+3]
		p0 := x[offs[ri]:][:n]
		p1 := x[offs[ri+1]:][:n]
		p2 := x[offs[ri+2]:][:n]
		p3 := x[offs[ri+3]:][:n]
		for j := 0; j < n; j++ {
			acc := dst[j] + a0*p0[j]
			acc += a1 * p1[j]
			acc += a2 * p2[j]
			acc += a3 * p3[j]
			dst[j] = acc
		}
	}
	for ; ri < r; ri++ {
		a := wrow[ri]
		p := x[offs[ri]:][:n]
		for j := 0; j < n; j++ {
			dst[j] += a * p[j]
		}
	}
}

// gemmValues draws operands for one value regime: plain values, sparse
// IEEE specials (NaN, ±Inf, ±0, subnormals, ±MaxFloat32), subnormals
// whose products underflow, and magnitudes whose products and sums
// overflow.
func gemmValues(rng *rand.Rand, regime string, n int) []float32 {
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), 0, math.SmallestNonzeroFloat32,
		-3 * math.SmallestNonzeroFloat32, 1e-40, math.MaxFloat32, -math.MaxFloat32,
	}
	v := make([]float32, n)
	for i := range v {
		x := rng.Float32()*4 - 2
		switch regime {
		case "specials":
			if rng.Intn(50) == 0 {
				x = specials[rng.Intn(len(specials))]
			}
		case "subnormal":
			x *= 1e-20
		case "overflow":
			x *= 1e19
		}
		v[i] = x
	}
	return v
}

// gemmOffsets returns an r-tap offset table whose rows of n columns
// each start pstride apart, as a staged panel's rows do, and, when
// shuffled, a permutation of it: taps out of address order, which no
// kernel may assume away. It also returns how many floats the rows
// span.
func gemmOffsets(rng *rand.Rand, r, n, pstride int, shuffled bool) ([]int32, int) {
	offs := make([]int32, r)
	for t := range offs {
		offs[t] = int32(t * pstride)
	}
	if shuffled {
		rng.Shuffle(r, func(a, b int) { offs[a], offs[b] = offs[b], offs[a] })
	}
	return offs, (r-1)*pstride + n
}

// sameBits reports whether got matches want bit for bit, allowing only
// a NaN's payload and sign when both are NaN: x86 keeps the first
// operand's when both addends are NaN, and which one that is in the Go
// loop is the compiler's choice. (The assembly puts the product first,
// as the compiler does today.)
func sameBits(got, want float32) bool {
	return math.Float32bits(got) == math.Float32bits(want) || (got != got && want != want)
}

// TestGemmRowMatchesScalarLoop pins the vector micro-kernel to the Go
// loop bit for bit: every column count from 0 to 67 (all four n mod 4
// tails, and n < 4 where the vector step does nothing), reduction
// lengths with every r mod 4 remainder up to the 648 rows of a served
// growth layer, panel rows longer than the tile (pstride > n) and taps
// out of address order, operands at odd float offsets (unaligned), and
// every value regime. It also checks that no element past the tile is
// written.
func TestGemmRowMatchesScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const guard = 5
	for _, regime := range []string{"plain", "specials", "subnormal", "overflow"} {
		for _, r := range []int{1, 2, 3, 4, 5, 7, 27, 648} {
			for n := 0; n <= 67; n++ {
				pstride := n + 1 + rng.Intn(6)
				offs, span := gemmOffsets(rng, r, n, pstride, n%2 == 1)
				off := 1 + 2*rng.Intn(2) // odd: no 16-byte alignment
				x := gemmValues(rng, regime, off+span)[off:]
				wrow := gemmValues(rng, regime, 1+r)[1:]
				bias := gemmValues(rng, regime, 1)[0]

				want := make([]float32, n)
				gemmRowScalar(wrow, x, offs, want, bias)
				buf := gemmValues(rng, "plain", off+n+guard)
				sentinel := append([]float32(nil), buf[off+n:]...)
				got := buf[off : off+n]
				gemmRow(wrow, x, offs, got, bias)

				for j := range want {
					if g, w := got[j], want[j]; !sameBits(g, w) {
						t.Fatalf("%s r=%d n=%d pstride=%d: column %d = %v (%#08x), scalar loop %v (%#08x)",
							regime, r, n, pstride, j, g, math.Float32bits(g), w, math.Float32bits(w))
					}
				}
				for i, v := range sentinel {
					if math.Float32bits(buf[off+n+i]) != math.Float32bits(v) {
						t.Fatalf("%s r=%d n=%d: wrote %d past the tile", regime, r, n, i)
					}
				}
			}
		}
	}
}

// TestGemmBlockMatchesScalarLoop pins the AVX block kernels to the Go
// loop bit for bit: gemmBlock6's six channels, gemmBlock's four and
// gemmBlock1's one are each gemmRowScalar over 16 columns, then the
// LeakyReLU when act is set. It sweeps reduction lengths 1–5 (a loop
// that runs once or a few times), 27 (a 3³ single-channel layer) and
// 648, taps in and out of address order, unaligned operands, output
// rows longer than the block (ds > 16), every value regime (NaN, ±Inf
// and ±0 among the specials) with and without the activation, and
// checks that nothing outside the channels × 16 block is written: not
// between its rows and not past its end.
func TestGemmBlockMatchesScalarLoop(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this CPU: ConvFused never calls the block kernels")
	}
	rng := rand.New(rand.NewSource(29))
	const guard = 7
	for _, regime := range []string{"plain", "specials", "subnormal", "overflow"} {
		for _, r := range []int{1, 2, 3, 4, 5, 27, 648} {
			for trial := 0; trial < 8; trial++ {
				for _, nc := range []int{6, 4, 1} {
					act := trial%2 == 1
					slope := gemmValues(rng, "plain", 1)[0]
					offs, span := gemmOffsets(rng, r, 16, 16+rng.Intn(9), trial >= 4)
					off := 1 + 2*rng.Intn(2)
					x := gemmValues(rng, regime, off+span)[off:]
					w := gemmValues(rng, regime, 1+nc*r)[1:]
					bias := gemmValues(rng, regime, nc)
					ds := 16 + rng.Intn(5)

					want := make([]float32, nc*ds)
					for c := 0; c < nc; c++ {
						row := want[c*ds : c*ds+16]
						gemmRowScalar(w[c*r:(c+1)*r], x, offs, row, bias[c])
						for j, v := range row {
							if act && v < 0 {
								row[j] = slope * v
							}
						}
					}
					buf := gemmValues(rng, "plain", off+(nc-1)*ds+16+guard)
					orig := append([]float32(nil), buf...)
					got := buf[off:]
					switch nc {
					case 6:
						gemmBlock6(got, ds, x, offs, w, bias, act, slope)
					case 4:
						gemmBlock(got, ds, x, offs, w, bias, act, slope)
					default:
						gemmBlock1(got, x, offs, w, bias[0], act, slope)
					}

					for i := range buf {
						c, j := (i-off)/ds, (i-off)%ds
						if i >= off && c < nc && j < 16 {
							if g, w := got[c*ds+j], want[c*ds+j]; !sameBits(g, w) {
								t.Fatalf("%s r=%d nc=%d act=%v trial %d: channel %d column %d = %v (%#08x), scalar loop %v (%#08x)",
									regime, r, nc, act, trial, c, j, g, math.Float32bits(g), w, math.Float32bits(w))
							}
						} else if math.Float32bits(buf[i]) != math.Float32bits(orig[i]) {
							t.Fatalf("%s r=%d nc=%d ds=%d: wrote element %d, outside the block", regime, r, nc, ds, i-off)
						}
					}
				}
			}
		}
	}
}

// BenchmarkGemmRow times one output channel's row over one column tile
// at served reduction lengths (r rows × n columns).
func BenchmarkGemmRow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range []struct{ r, n int }{{27, 4096}, {200, 1024}, {648, 2048}} {
		x := gemmValues(rng, "plain", sh.r*sh.n)
		offs, _ := gemmOffsets(rng, sh.r, sh.n, sh.n, false)
		wrow := gemmValues(rng, "plain", sh.r)
		dst := make([]float32, sh.n)
		b.Run(fmt.Sprintf("r%d_n%d", sh.r, sh.n), func(b *testing.B) {
			b.SetBytes(int64(4 * sh.r * sh.n))
			for i := 0; i < b.N; i++ {
				gemmRow(wrow, x, offs, dst, 0.5)
			}
			b.ReportMetric(float64(sh.r*sh.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}

// BenchmarkGemmBlock times each AVX block kernel — gemmBlock6's six
// channels, gemmBlock's four and gemmBlock1's one — over the same r × n
// shapes as BenchmarkGemmRow, 16 columns per call (r = 648 as a served
// layer reads it: the 24 × 27 taps of tapOffsets over a padded 24 ×
// 4 × 34 × 34 panel, 0.44 MB, where rows n+16 floats apart would span
// 5.3 MB and time cache misses instead of the kernel), then at the
// classifier's narrowest served rows: its growth convolution (24
// channels in, 3³, r = 648) on 4 × 8 × 8 with a padded output, through
// ConvFused on one worker, with 6, 4 or 1 output channels so that one
// kernel does all the work. GMAC/s counts the useful multiply-adds of
// every channel: on the 8-wide rows a lane that lands on a halo column
// does work that counts for nothing.
func BenchmarkGemmBlock(b *testing.B) {
	if !useAVX {
		b.Skip("no AVX on this CPU")
	}
	rng := rand.New(rand.NewSource(1))
	for _, sh := range []struct{ r, n int }{{27, 4096}, {200, 1024}, {648, 2048}} {
		x := gemmValues(rng, "plain", sh.r*(sh.n+16))
		offs, _ := gemmOffsets(rng, sh.r, sh.n, sh.n+16, false)
		if sh.r == 648 {
			s := ConvShape{InC: 24, D: 2, H: 32, W: 32, OutC: 6, K: 3}
			x = gemmValues(rng, "plain", s.padLen())
			tapOffsets(offs, s)
		}
		w := gemmValues(rng, "plain", 6*sh.r)
		bias := []float32{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
		dst := make([]float32, 6*sh.n)
		for _, nc := range []int{6, 4, 1} {
			b.Run(fmt.Sprintf("r%d_n%d/c%d", sh.r, sh.n, nc), func(b *testing.B) {
				b.SetBytes(int64(4 * sh.r * sh.n))
				for i := 0; i < b.N; i++ {
					for q := 0; q < sh.n; q += 16 {
						switch nc {
						case 6:
							gemmBlock6(dst[q:], sh.n, x[q:], offs, w, bias, false, 0)
						case 4:
							gemmBlock(dst[q:], sh.n, x[q:], offs, w, bias, false, 0)
						default:
							gemmBlock1(dst[q:q+16], x[q:], offs, w, bias[0], false, 0)
						}
					}
				}
				b.ReportMetric(float64(nc*sh.r*sh.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
	for _, nc := range []int{6, 4, 1} {
		s := ConvShape{InC: 24, D: 4, H: 8, W: 8, OutC: nc, K: 3, Halo: 1}
		do, ho, wo := s.grid(s.Halo)
		xp := make([]float32, s.padLen())
		Pad(gemmValues(rng, "plain", s.InLen()), xp, s)
		w := gemmValues(rng, "plain", s.WeightLen())
		out := make([]float32, nc*do*ho*wo)
		ep := Epilogue{Bias: gemmValues(rng, "plain", nc)}
		b.Run(fmt.Sprintf("w8_r648/c%d", nc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ConvFused(xp, w, out, s, 1, ep)
			}
			b.ReportMetric(float64(s.OutLen()*648)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}
