//go:build !amd64

package kernels

// Off amd64 there is no vector step: the Go loops in planes.go do every
// column of every pass.

func maxPairs(dst, src []float32) int { return 0 }

func maxTriples(dst, src []float32) int { return 0 }

func maxRows(dst, src []float32, stride, rows int) int { return 0 }

func lerpRows(dst, top, bot []float32, wy float32) int { return 0 }

func lerpPairs(dst, src []float32, f0, f1 float32) int { return 0 }

func bnActRow(dst, src []float32, s, t, slope float32) int { return 0 }
