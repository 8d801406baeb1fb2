package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gemmRowScalar is gemmRow with only its Go loops: the order every
// architecture's result must reproduce bit for bit.
func gemmRowScalar(wrow, panel, dst []float32, pstride int, bias float32) {
	for j := range dst {
		dst[j] = bias
	}
	n := len(dst)
	r := len(wrow)
	ri := 0
	for ; ri+4 <= r; ri += 4 {
		a0, a1, a2, a3 := wrow[ri], wrow[ri+1], wrow[ri+2], wrow[ri+3]
		p0 := panel[ri*pstride : ri*pstride+n]
		p1 := panel[(ri+1)*pstride : (ri+1)*pstride+n]
		p2 := panel[(ri+2)*pstride : (ri+2)*pstride+n]
		p3 := panel[(ri+3)*pstride : (ri+3)*pstride+n]
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
		p := panel[ri*pstride : ri*pstride+n]
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

// TestGemmRowMatchesScalarLoop pins the vector micro-kernel to the Go
// loop bit for bit: every column count from 0 to 67 (all four n mod 4
// tails, and n < 4 where the vector step does nothing), reduction
// lengths with every r mod 4 remainder up to the 648 rows of a served
// growth layer, panel rows longer than the tile (pstride > n), operands
// at odd float offsets (unaligned), and every value regime. It also
// checks that no element past the tile is written.
//
// The one freedom allowed is a NaN's payload and sign when both addends
// are NaN: x86 keeps the first operand's, and which one that is in the
// Go loop is the compiler's choice. (The assembly puts the product
// first, as the compiler does today.)
func TestGemmRowMatchesScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const guard = 5
	for _, regime := range []string{"plain", "specials", "subnormal", "overflow"} {
		for _, r := range []int{1, 2, 3, 4, 5, 7, 27, 648} {
			for n := 0; n <= 67; n++ {
				pstride := n + 1 + rng.Intn(6)
				off := 1 + 2*rng.Intn(2) // odd: no 16-byte alignment
				panel := gemmValues(rng, regime, off+r*pstride)[off:]
				wrow := gemmValues(rng, regime, 1+r)[1:]
				bias := gemmValues(rng, regime, 1)[0]

				want := make([]float32, n)
				gemmRowScalar(wrow, panel, want, pstride, bias)
				buf := gemmValues(rng, "plain", off+n+guard)
				sentinel := append([]float32(nil), buf[off+n:]...)
				got := buf[off : off+n]
				gemmRow(wrow, panel, got, pstride, bias)

				for j := range want {
					g, w := got[j], want[j]
					if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
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

// BenchmarkGemmRow times one output channel's row over one column tile
// at served reduction lengths (r rows × n columns).
func BenchmarkGemmRow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range []struct{ r, n int }{{27, 4096}, {200, 1024}, {648, 2048}} {
		panel := gemmValues(rng, "plain", sh.r*sh.n)
		wrow := gemmValues(rng, "plain", sh.r)
		dst := make([]float32, sh.n)
		b.Run(fmt.Sprintf("r%d_n%d", sh.r, sh.n), func(b *testing.B) {
			b.SetBytes(int64(4 * sh.r * sh.n))
			for i := 0; i < b.N; i++ {
				gemmRow(wrow, panel, dst, sh.n, 0.5)
			}
			b.ReportMetric(float64(sh.r*sh.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}
