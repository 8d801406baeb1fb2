package ag

// MSELoss returns mean((pred - target)²), the first term of DDnet's
// composite loss (Equation 1 of the paper).
func MSELoss(pred, target *Value) *Value {
	d := Sub(pred, target)
	return Mean(Square(d))
}

// BCELoss returns the binary cross-entropy between predicted
// probabilities p ∈ (0,1) and targets y ∈ {0,1} (Equation 2 of the
// paper). Probabilities are clamped to [eps, 1-eps] for numerical
// stability, as deep-learning frameworks do.
func BCELoss(prob, target *Value) *Value {
	const eps = 1e-7
	p := Clamp(prob, eps, 1-eps)
	// -(y·log p + (1-y)·log(1-p)), averaged.
	term1 := Mul(target, Log(p))
	oneMinusY := AddConst(Neg(target), 1)
	oneMinusP := AddConst(Neg(p), 1)
	term2 := Mul(oneMinusY, Log(oneMinusP))
	return MulConst(Mean(Add(term1, term2)), -1)
}

// BCEWithLogitsLoss fuses Sigmoid and BCELoss for better conditioning:
// loss = mean(max(z,0) - z·y + log(1 + e^{-|z|})).
func BCEWithLogitsLoss(logits, target *Value) *Value {
	zy := Mul(logits, target)
	relu := ReLU(logits)
	// log(1 + exp(-|z|)) computed via the stable softplus form.
	negAbs := Neg(Abs(logits))
	softplus := Log(AddConst(Exp(negAbs), 1))
	return Mean(Add(Sub(relu, zy), softplus))
}
