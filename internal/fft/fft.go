// Package fft provides a radix-2 iterative fast Fourier transform used
// by the CT reconstruction stack (internal/ctsim) to apply the ramp
// filter of filtered back projection in the frequency domain.
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// FFT computes the in-place forward discrete Fourier transform of x,
// whose length must be a power of two:
//
//	X[k] = Σ_n x[n]·e^{-2πi·kn/N}
func FFT(x []complex128) {
	transform(x, false)
}

// IFFT computes the in-place inverse DFT of x (including the 1/N
// normalization), whose length must be a power of two.
func IFFT(x []complex128) {
	transform(x, true)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
}

func transform(x []complex128, inverse bool) {
	n := len(x)
	if !IsPow2(n) {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Cooley–Tukey butterflies.
	for size := 2; size <= n; size <<= 1 {
		ang := 2 * math.Pi / float64(size)
		if !inverse {
			ang = -ang
		}
		wStep := complex(math.Cos(ang), math.Sin(ang))
		half := size / 2
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}
