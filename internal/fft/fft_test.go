package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestFFTKnownValues(t *testing.T) {
	// DFT of [1,0,0,0] is all ones.
	x := []complex128{1, 0, 0, 0}
	FFT(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("FFT(delta)[%d] = %v, want 1", i, v)
		}
	}
	// DFT of a constant is a delta at DC.
	y := []complex128{2, 2, 2, 2}
	FFT(y)
	if cmplx.Abs(y[0]-8) > 1e-12 {
		t.Fatalf("FFT(const)[0] = %v, want 8", y[0])
	}
	for i := 1; i < 4; i++ {
		if cmplx.Abs(y[i]) > 1e-12 {
			t.Fatalf("FFT(const)[%d] = %v, want 0", i, y[i])
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 16
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k*j) / float64(n)
			want[k] += x[j] * cmplx.Exp(complex(0, ang))
		}
	}
	got := append([]complex128(nil), x...)
	FFT(got)
	for k := range want {
		if cmplx.Abs(got[k]-want[k]) > 1e-9 {
			t.Fatalf("FFT[%d] = %v, naive DFT = %v", k, got[k], want[k])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, sizeExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (sizeExp%8 + 1)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := append([]complex128(nil), x...)
		FFT(y)
		IFFT(y)
		for i := range x {
			if cmplx.Abs(y[i]-x[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 64
	x := make([]complex128, n)
	timeEnergy := 0.0
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		timeEnergy += real(x[i] * cmplx.Conj(x[i]))
	}
	FFT(x)
	freqEnergy := 0.0
	for _, v := range x {
		freqEnergy += real(v * cmplx.Conj(v))
	}
	if math.Abs(timeEnergy-freqEnergy/float64(n)) > 1e-9 {
		t.Fatalf("Parseval violated: time %v, freq/N %v", timeEnergy, freqEnergy/float64(n))
	}
}

func TestNonPow2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two length")
		}
	}()
	FFT(make([]complex128, 12))
}

func BenchmarkFFT1024(b *testing.B) {
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(float64(i%17), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := append([]complex128(nil), x...)
		FFT(y)
	}
}
