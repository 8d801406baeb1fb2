//go:build !amd64

package kernels

// Off amd64 there is no vector step: gemmRow's Go loop does every
// column.

func gemmQuad(dst, p0, p1, p2, p3 []float32, a0, a1, a2, a3 float32) int { return 0 }

func gemmTap(dst, p []float32, a float32) int { return 0 }
