package ag

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"computecovid19/internal/memplan"
	"computecovid19/internal/tensor"
)

// conv3DDirect is the reference 3D cross-correlation, a direct loop
// nest: each output starts from its bias and adds the in-range taps in
// (ci, kz, ky, kx) order, skipping padded ones.
func conv3DDirect(x, w, b *tensor.Tensor, stride, pad int) *tensor.Tensor {
	n, cin, dd, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3], x.Shape[4]
	cout, kd, kh, kw := w.Shape[0], w.Shape[2], w.Shape[3], w.Shape[4]
	od0, oh, ow := convOutDim(dd, kd, stride, pad), convOutDim(h, kh, stride, pad), convOutDim(wd, kw, stride, pad)
	out := tensor.New(n, cout, od0, oh, ow)
	planeIn, planeOut := dd*h*wd, od0*oh*ow
	for ni := 0; ni < n; ni++ {
		for co := 0; co < cout; co++ {
			var bias float32
			if b != nil {
				bias = b.Data[co]
			}
			obase := (ni*cout + co) * planeOut
			for oz := 0; oz < od0; oz++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						acc := bias
						for ci := 0; ci < cin; ci++ {
							xbase := (ni*cin + ci) * planeIn
							wbase := (co*cin + ci) * kd * kh * kw
							for kz := 0; kz < kd; kz++ {
								iz := oz*stride - pad + kz
								if iz < 0 || iz >= dd {
									continue
								}
								for ky := 0; ky < kh; ky++ {
									iy := oy*stride - pad + ky
									if iy < 0 || iy >= h {
										continue
									}
									for kx := 0; kx < kw; kx++ {
										ix := ox*stride - pad + kx
										if ix < 0 || ix >= wd {
											continue
										}
										acc += x.Data[xbase+(iz*h+iy)*wd+ix] * w.Data[wbase+(kz*kh+ky)*kw+kx]
									}
								}
							}
						}
						out.Data[obase+(oz*oh+oy)*ow+ox] = acc
					}
				}
			}
		}
	}
	return out
}

// TestEvalConv3DMatchesDirectNest pins the GEMM lowering of EvalConv3D
// to the direct nest bit for bit, over depths whose taps are mostly
// padding (D = 1), odd extents smaller and larger than the kernel,
// every classifier kernel size, batch 1 and 2, with and without bias,
// and on 1, 2 and 4 procs — where the column tiles cross plane
// boundaries and land on pool workers.
func TestEvalConv3DMatchesDirectNest(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mem := memplan.New()
	const cin, cout = 3, 4
	for _, d := range []int{1, 2, 4} {
		for _, hw := range [][2]int{{3, 5}, {7, 9}, {11, 13}} {
			for _, k := range []int{1, 3, 5} {
				for _, n := range []int{1, 2} {
					x := tensor.New(n, cin, d, hw[0], hw[1]).RandN(rng, 0, 1)
					w := tensor.New(cout, cin, k, k, k).RandN(rng, 0, 1)
					for _, b := range []*tensor.Tensor{nil, tensor.New(cout).RandN(rng, 0, 1)} {
						want := conv3DDirect(x, w, b, 1, k/2)
						for _, procs := range []int{1, 2, 4} {
							runtime.GOMAXPROCS(procs)
							sc := mem.NewScope()
							if got := EvalConv3D(sc, x, w, b, Conv3DConfig{Stride: 1, Padding: k / 2}); !sameBits(got, want) {
								t.Errorf("x %v k=%d bias=%v on %d procs: GEMM differs from the direct nest",
									x.Shape, k, b != nil, procs)
							}
							sc.Close()
						}
					}
				}
			}
		}
	}
}

// TestConv3DBadOperandPanicsOnCaller feeds EvalConv3D — the forward of
// nn.Conv3D.Infer, which serving calls — operands that do not form a
// stride-1 "same" odd cubic convolution, on two procs and a volume
// large enough to split into column tiles. Each must panic on the
// calling goroutine, where the recover below (serving's, in
// production) catches it; a panic on a pool worker would kill the test
// binary instead.
func TestConv3DBadOperandPanicsOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	x := tensor.New(1, 2, 4, 16, 16)
	ok := Conv3DConfig{Stride: 1, Padding: 1}
	cases := []struct {
		name string
		x, w *tensor.Tensor
		b    *tensor.Tensor
		cfg  Conv3DConfig
	}{
		{"x rank 4", tensor.New(2, 4, 16, 16), tensor.New(4, 2, 3, 3, 3), nil, ok},
		{"w rank 4", x, tensor.New(4, 2, 3, 3), nil, ok},
		{"cin mismatch", x, tensor.New(4, 3, 3, 3, 3), nil, ok},
		{"even kernel", x, tensor.New(4, 2, 2, 2, 2), nil, Conv3DConfig{Stride: 1, Padding: 1}},
		{"non-cubic kernel", x, tensor.New(4, 2, 3, 3, 1), nil, ok},
		{"stride 2", x, tensor.New(4, 2, 3, 3, 3), nil, Conv3DConfig{Stride: 2, Padding: 1}}, // no strided lowering exists
		{"padding 0", x, tensor.New(4, 2, 3, 3, 3), nil, Conv3DConfig{Stride: 1, Padding: 0}},
		{"bias length", x, tensor.New(4, 2, 3, 3, 3), tensor.New(3), ok},
	}
	for _, c := range cases {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			EvalConv3D(nil, c.x, c.w, c.b, c.cfg)
			return "no panic"
		}()
		if !strings.HasPrefix(msg, "ag: Conv3D") {
			t.Errorf("%s: recovered %q, want an ag: Conv3D validation panic", c.name, msg)
		}
	}
}
