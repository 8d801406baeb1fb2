package ag

// MSELoss returns mean((pred - target)²), the first term of DDnet's
// composite loss (Equation 1 of the paper).
func MSELoss(pred, target *Value) *Value {
	d := Sub(pred, target)
	return Mean(Square(d))
}

// BCEWithLogitsLoss fuses Sigmoid and the binary cross-entropy of
// Equation 2 (BCELoss, its test oracle) for better conditioning:
// loss = mean(max(z,0) - z·y + log(1 + e^{-|z|})).
func BCEWithLogitsLoss(logits, target *Value) *Value {
	zy := Mul(logits, target)
	relu := ReLU(logits)
	// log(1 + exp(-|z|)) computed via the stable softplus form.
	negAbs := Neg(Abs(logits))
	softplus := Log(AddConst(Exp(negAbs), 1))
	return Mean(Add(Sub(relu, zy), softplus))
}
