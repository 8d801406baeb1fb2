//go:build !amd64

package kernels

// Off amd64 there is no vector step: gemmRow's Go loop does every
// column, and the block kernels are never selected.

var useAVX, useAVX512 = false, false

func gemmQuad(dst, p0, p1, p2, p3 []float32, a0, a1, a2, a3 float32) int { return 0 }

func gemmTap(dst, p []float32, a float32) int { return 0 }

func gemmBlock(dst []float32, ds int, x []float32, offs []int32, w []float32, bias []float32, act bool, slope float32) {
	panic("kernels: gemmBlock needs amd64")
}

func gemmBlock6(dst []float32, ds int, x []float32, offs []int32, w []float32, bias []float32, act bool, slope float32) {
	panic("kernels: gemmBlock6 needs amd64")
}

func gemmBlock1(dst, x []float32, offs []int32, w []float32, bias float32, act bool, slope float32) {
	panic("kernels: gemmBlock1 needs amd64")
}

func gemmBlockZ(dst []float32, ds int, x []float32, offs []int32, w []float32, bias []float32, act bool, slope float32) {
	panic("kernels: gemmBlockZ needs amd64")
}

func gemmBlock6Z(dst []float32, ds int, x []float32, offs []int32, w []float32, bias []float32, act bool, slope float32) {
	panic("kernels: gemmBlock6Z needs amd64")
}

func gemmBlock1Z(dst, x []float32, offs []int32, w []float32, bias float32, act bool, slope float32) {
	panic("kernels: gemmBlock1Z needs amd64")
}
