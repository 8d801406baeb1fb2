package nn

import (
	"math/rand"

	"computecovid19/internal/ag"
	"computecovid19/internal/tensor"
)

// DenseLayer3D is one densely connected layer of the 3D DenseNet
// classifier (§2.3.2): BN → ReLU → 1³ bottleneck → BN → ReLU → k³ conv
// producing `growth` feature maps. Its input is the channel-concatenation
// of the block input and every previous layer's output. (DDnet's 2D
// dense blocks are spelled by kernels.Walk, not here.)
type DenseLayer3D struct {
	BN1   *BatchNorm
	Conv1 *Conv3D
	BN2   *BatchNorm
	Conv2 *Conv3D
}

// NewDenseLayer3D builds one 3D dense layer (1×1×1 bottleneck then k³
// growth conv).
func NewDenseLayer3D(rng *rand.Rand, inCh, bottleneck, growth, kernel int, std float64) *DenseLayer3D {
	return &DenseLayer3D{
		BN1:   NewBatchNorm(inCh),
		Conv1: NewConv3D(rng, inCh, bottleneck, 1, 1, 0, false, std),
		BN2:   NewBatchNorm(bottleneck),
		Conv2: NewConv3D(rng, bottleneck, growth, kernel, 1, kernel/2, false, std),
	}
}

// Forward applies BN→ReLU→1³→BN→ReLU→k³.
func (l *DenseLayer3D) Forward(x *ag.Value) *ag.Value {
	h := ag.ReLU(l.BN1.Forward(x))
	h = l.Conv1.Forward(h)
	h = ag.ReLU(l.BN2.Forward(h))
	return l.Conv2.Forward(h)
}

// Params returns the trainable parameters of all sublayers.
func (l *DenseLayer3D) Params() []*ag.Value {
	ps := l.BN1.Params()
	ps = append(ps, l.Conv1.Params()...)
	ps = append(ps, l.BN2.Params()...)
	ps = append(ps, l.Conv2.Params()...)
	return ps
}

// SetTraining propagates the mode to the batch norms.
func (l *DenseLayer3D) SetTraining(train bool) {
	l.BN1.SetTraining(train)
	l.BN2.SetTraining(train)
}

func (l *DenseLayer3D) stateTensors() []*tensor.Tensor {
	return append(l.BN1.stateTensors(), l.BN2.stateTensors()...)
}

// DenseBlock3D is a densely connected block over 3D feature volumes.
type DenseBlock3D struct {
	Layers []*DenseLayer3D
}

// NewDenseBlock3D builds a 3D dense block with the given growth rate.
func NewDenseBlock3D(rng *rand.Rand, inCh, growth, layers, kernel int, std float64) *DenseBlock3D {
	b := &DenseBlock3D{}
	ch := inCh
	for i := 0; i < layers; i++ {
		b.Layers = append(b.Layers, NewDenseLayer3D(rng, ch, 4*growth, growth, kernel, std))
		ch += growth
	}
	return b
}

// Forward runs the dense connectivity pattern in 3D.
func (b *DenseBlock3D) Forward(x *ag.Value) *ag.Value {
	features := []*ag.Value{x}
	for _, l := range b.Layers {
		in := ag.Concat(1, features...)
		features = append(features, l.Forward(in))
	}
	return ag.Concat(1, features...)
}

// Params returns the parameters of every dense layer.
func (b *DenseBlock3D) Params() []*ag.Value {
	var ps []*ag.Value
	for _, l := range b.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// SetTraining propagates the mode to every dense layer.
func (b *DenseBlock3D) SetTraining(train bool) {
	for _, l := range b.Layers {
		l.SetTraining(train)
	}
}

func (b *DenseBlock3D) stateTensors() []*tensor.Tensor {
	var ts []*tensor.Tensor
	for _, l := range b.Layers {
		ts = append(ts, l.stateTensors()...)
	}
	return ts
}
