package ag

// The fast convolution graph ops. Their forward is EvalConv2D — the
// selected internal/kernels optimization-ladder rung (kernels.Default,
// normally the im2col + cache-blocked GEMM path) — for stride-1 "same"
// odd-square-kernel layers, which is every 2D layer the networks have
// (DDnet, the 2D slice classifier, the segmentation U-Net). Any other
// shape takes the direct graph op. The backward is the direct op's,
// which never materializes a patch matrix.

// sameConvShape reports whether the layer is a stride-1 "same"
// convolution with an odd square kernel — the family internal/kernels'
// optimization-ladder rungs cover (every DDnet layer qualifies).
func sameConvShape(kh, kw, stride, pad int) bool {
	return kh == kw && kh%2 == 1 && stride == 1 && pad == kh/2
}

// Conv2DFast is a drop-in replacement for Conv2D whose forward pass
// dispatches stride-1 "same" odd-square-kernel layers to EvalConv2D and
// every other shape to Conv2D's direct loops. Gradients are computed
// with the same formulas as Conv2D.
func Conv2DFast(x, w, b *Value, cfg Conv2DConfig) *Value {
	if !sameConvShape(w.T.Shape[2], w.T.Shape[3], cfg.Stride, cfg.Padding) {
		return Conv2D(x, w, b, cfg)
	}
	return newConv2DNode(x, w, b, cfg, EvalConv2D(nil, x.T, w.T, b.Tensor(), cfg, false, 0))
}

// ConvTranspose2DFast is a drop-in replacement for ConvTranspose2D
// whose forward pass dispatches stride-1 "same" odd-square-kernel
// layers — all of DDnet's deconvolutions — to the selected
// internal/kernels rung (kernels.Default, normally the gather + GEMM
// formulation from §4.2.1, which has no scatter races and so
// parallelizes over output tiles). Other shapes fall back to the
// direct gather loops. Gradients are identical to ConvTranspose2D's.
func ConvTranspose2DFast(x, w, b *Value, cfg Conv2DConfig) *Value {
	if !sameConvShape(w.T.Shape[2], w.T.Shape[3], cfg.Stride, cfg.Padding) {
		return ConvTranspose2D(x, w, b, cfg)
	}
	return newConvTranspose2DNode(x, w, b, cfg, EvalConv2D(nil, x.T, w.T, b.Tensor(), cfg, true, 0))
}
