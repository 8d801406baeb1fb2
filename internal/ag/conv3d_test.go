package ag

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"computecovid19/internal/tensor"
)

// conv3DDirect is the reference stride-1 "same" 3D cross-correlation,
// a direct loop nest: each output starts from its bias and adds the
// in-range taps in (ci, kz, ky, kx) order, skipping padded ones.
func conv3DDirect(x, w, b *tensor.Tensor) *tensor.Tensor {
	n, cin, dd, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3], x.Shape[4]
	cout, k := w.Shape[0], w.Shape[2]
	pad := k / 2
	out := tensor.New(n, cout, dd, h, wd)
	plane := dd * h * wd
	for ni := 0; ni < n; ni++ {
		for co := 0; co < cout; co++ {
			var bias float32
			if b != nil {
				bias = b.Data[co]
			}
			obase := (ni*cout + co) * plane
			for oz := 0; oz < dd; oz++ {
				for oy := 0; oy < h; oy++ {
					for ox := 0; ox < wd; ox++ {
						acc := bias
						for ci := 0; ci < cin; ci++ {
							xbase := (ni*cin + ci) * plane
							wbase := (co*cin + ci) * k * k * k
							for kz := 0; kz < k; kz++ {
								iz := oz - pad + kz
								if iz < 0 || iz >= dd {
									continue
								}
								for ky := 0; ky < k; ky++ {
									iy := oy - pad + ky
									if iy < 0 || iy >= h {
										continue
									}
									for kx := 0; kx < k; kx++ {
										ix := ox - pad + kx
										if ix < 0 || ix >= wd {
											continue
										}
										acc += x.Data[xbase+(iz*h+iy)*wd+ix] * w.Data[wbase+(kz*k+ky)*k+kx]
									}
								}
							}
						}
						out.Data[obase+(oz*h+oy)*wd+ox] = acc
					}
				}
			}
		}
	}
	return out
}

// TestConv3DMatchesDirectNest pins the GEMM lowering of conv3D
// to the direct nest bit for bit, over depths whose taps are mostly
// padding (D = 1), odd extents smaller and larger than the kernel,
// every classifier kernel size, batch 1 and 2, with and without bias,
// and on 1, 2 and 4 procs — where the column tiles cross plane
// boundaries and land on pool workers.
func TestConv3DMatchesDirectNest(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const cin, cout = 3, 4
	for _, d := range []int{1, 2, 4} {
		for _, hw := range [][2]int{{3, 5}, {7, 9}, {11, 13}} {
			for _, k := range []int{1, 3, 5} {
				for _, n := range []int{1, 2} {
					x := tensor.New(n, cin, d, hw[0], hw[1]).RandN(rng, 0, 1)
					w := tensor.New(cout, cin, k, k, k).RandN(rng, 0, 1)
					for _, b := range []*tensor.Tensor{nil, tensor.New(cout).RandN(rng, 0, 1)} {
						want := conv3DDirect(x, w, b)
						for _, procs := range []int{1, 2, 4} {
							runtime.GOMAXPROCS(procs)
							if got := conv3D(x, w, b); !sameBits(got, want) {
								t.Errorf("x %v k=%d bias=%v on %d procs: GEMM differs from the direct nest",
									x.Shape, k, b != nil, procs)
							}
						}
					}
				}
			}
		}
	}
}

// TestConvBadOperandPanicsOnCaller feeds conv2D and conv3D — the
// forwards of every convolution graph op — operands that do not form a
// stride-1 "same" odd square or cubic (transposed) convolution, on two
// procs and inputs large enough to split into column tiles. Each must
// panic on the calling goroutine, where the recover below catches it; a
// panic on a pool worker would kill the test binary instead.
func TestConvBadOperandPanicsOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	x4, x5 := tensor.New(1, 2, 16, 16), tensor.New(1, 2, 4, 16, 16)
	conv := func(x, w, b *tensor.Tensor) { conv2D(x, w, b, false) }
	deconv := func(x, w, b *tensor.Tensor) { conv2D(x, w, b, true) }
	conv3 := func(x, w, b *tensor.Tensor) { conv3D(x, w, b) }
	cases := []struct {
		op   string
		run  func(x, w, b *tensor.Tensor)
		name string
		x, w *tensor.Tensor
		b    *tensor.Tensor
	}{
		{"Conv2D", conv, "x rank 5", x5, tensor.New(4, 2, 3, 3), nil},
		{"Conv2D", conv, "w rank 5", x4, tensor.New(4, 2, 3, 3, 3), nil},
		{"Conv2D", conv, "cin mismatch", tensor.New(1, 3, 16, 16), tensor.New(4, 2, 3, 3), nil},
		{"Conv2D", conv, "even kernel", x4, tensor.New(4, 2, 2, 2), nil},
		{"Conv2D", conv, "non-square kernel", x4, tensor.New(4, 2, 3, 1), nil},
		{"Conv2D", conv, "bias length", x4, tensor.New(4, 2, 3, 3), tensor.New(3)},
		{"ConvTranspose2D", deconv, "x rank 5", x5, tensor.New(2, 4, 3, 3), nil},
		{"ConvTranspose2D", deconv, "cin mismatch", x4, tensor.New(4, 2, 3, 3), nil}, // (Cin, Cout, K, K)
		{"ConvTranspose2D", deconv, "even kernel", x4, tensor.New(2, 4, 4, 4), nil},
		{"ConvTranspose2D", deconv, "bias length", x4, tensor.New(2, 4, 3, 3), tensor.New(2)},
		{"Conv3D", conv3, "x rank 4", x4, tensor.New(4, 2, 3, 3, 3), nil},
		{"Conv3D", conv3, "w rank 4", x5, tensor.New(4, 2, 3, 3), nil},
		{"Conv3D", conv3, "cin mismatch", x5, tensor.New(4, 3, 3, 3, 3), nil},
		{"Conv3D", conv3, "even kernel", x5, tensor.New(4, 2, 2, 2, 2), nil},
		{"Conv3D", conv3, "non-cubic kernel", x5, tensor.New(4, 2, 3, 3, 1), nil},
		{"Conv3D", conv3, "bias length", x5, tensor.New(4, 2, 3, 3, 3), tensor.New(3)},
	}
	for _, c := range cases {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			c.run(c.x, c.w, c.b)
			return "no panic"
		}()
		if !strings.HasPrefix(msg, "ag: "+c.op+" ") {
			t.Errorf("%s %s: recovered %q, want an ag: %s validation panic", c.op, c.name, msg, c.op)
		}
	}
}
