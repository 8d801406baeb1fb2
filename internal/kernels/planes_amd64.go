package kernels

// The plane kernels of planes_amd64.s are SSE, in the amd64 baseline,
// so they run on every amd64 CPU with no probe. Each pool and up-sample
// kernel covers a row of n >= 4 columns in full and returns n, or
// returns 0 and does nothing for a shorter row, which the Go loop in
// planes.go then does; bnActRow returns how far it got.

// maxPairs sets dst[j] to the first-wins maximum of src[2j] and
// src[2j+1]. src must hold 2·len(dst) values.
//
//go:noescape
func maxPairs(dst, src []float32) int

// maxTriples sets dst[j] to the first-wins maximum of src[2j],
// src[2j+1] and src[2j+2]. src must hold 2·len(dst)+1 values.
//
//go:noescape
func maxTriples(dst, src []float32) int

// maxRows sets dst[j] to the first-wins maximum of src[r·stride+j] over
// r < rows. rows must be at least 1 and src must hold
// (rows−1)·stride+len(dst) values.
//
//go:noescape
func maxRows(dst, src []float32, stride, rows int) int

// lerpRows sets dst[j] = top[j] + wy·(bot[j]−top[j]). top and bot must
// hold len(dst) values.
//
//go:noescape
func lerpRows(dst, top, bot []float32, wy float32) int

// lerpPairs sets dst[2i] = src[i] + f0·d and dst[2i+1] = src[i] + f1·d,
// d = src[i+1]−src[i], for i < n = len(dst)/2, and returns n (0 for
// fewer than four pairs). src must hold n+1 values.
//
//go:noescape
func lerpPairs(dst, src []float32, f0, f1 float32) int

// bnActRow sets dst[j] = lrelu(s·src[j] + t), LeakyReLU with slope,
// for j < len(dst) &^ 3 and returns that count; the Go loop does the
// rest. dst may be src; src must hold len(dst) &^ 3 values.
//
//go:noescape
func bnActRow(dst, src []float32, s, t, slope float32) int
