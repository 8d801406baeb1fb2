package ag

import (
	"math"
	"math/rand"
	"testing"

	"computecovid19/internal/tensor"
)

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := Const(tensor.New(3, 5).RandN(rng, 0, 3))
	y := Softmax(x)
	for i := 0; i < 3; i++ {
		sum := 0.0
		for j := 0; j < 5; j++ {
			v := float64(y.T.At(i, j))
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestSoftmaxStableWithLargeLogits(t *testing.T) {
	x := Const(tensor.FromSlice([]float32{1000, 1001, 999}, 1, 3))
	y := Softmax(x)
	for _, v := range y.T.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax overflowed: %v", y.T.Data)
		}
	}
	if !(y.T.Data[1] > y.T.Data[0] && y.T.Data[0] > y.T.Data[2]) {
		t.Fatalf("softmax ordering wrong: %v", y.T.Data)
	}
}

func TestGradSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randParam(rng, 2, 4)
	gradCheck(t, "softmax", []*Value{x}, func() *Value {
		return Mean(Square(Softmax(x)))
	}, 2e-2)
}

func TestCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over C classes → loss = ln C.
	logits := Const(tensor.New(2, 4))
	loss := CrossEntropyLoss(logits, []int{0, 3})
	if math.Abs(float64(loss.Scalar())-math.Log(4)) > 1e-5 {
		t.Fatalf("CE = %v, want ln4", loss.Scalar())
	}
}

func TestCrossEntropyMatchesManualComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(3, 4).RandN(rng, 0, 2)
	labels := []int{1, 0, 3}
	fused := CrossEntropyLoss(Const(x), labels)
	// Manual: −mean(log softmax[label]).
	sm := Softmax(Const(x))
	manual := 0.0
	for i, l := range labels {
		manual -= math.Log(float64(sm.T.At(i, l)))
	}
	manual /= 3
	if math.Abs(float64(fused.Scalar())-manual) > 1e-5 {
		t.Fatalf("fused CE %v vs manual %v", fused.Scalar(), manual)
	}
}

func TestGradCrossEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randParam(rng, 3, 4)
	labels := []int{2, 0, 1}
	gradCheck(t, "crossentropy", []*Value{x}, func() *Value {
		return CrossEntropyLoss(x, labels)
	}, 2e-2)
}

func TestCrossEntropyLabelValidation(t *testing.T) {
	logits := Const(tensor.New(1, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range label")
		}
	}()
	CrossEntropyLoss(logits, []int{3})
}
