package classify

import (
	"math/rand"

	"computecovid19/internal/ag"
	"computecovid19/internal/nn"
	"computecovid19/internal/tensor"
	"computecovid19/internal/volume"
)

// Severity grading extends binary COVID classification toward the
// *monitoring* use case in the paper's title: instead of
// positive/negative, the network grades the scan into disease-extent
// classes. The trunk is the same 3D DenseNet; only the head widens to C
// classes with a softmax cross-entropy objective.

// Grade is a disease-extent class.
type Grade int

// Severity grades.
const (
	GradeNone Grade = iota
	GradeMild
	GradeSevere
	// NumGrades is the class count of the default grading scheme.
	NumGrades = 3
)

// String names the grade.
func (g Grade) String() string {
	switch g {
	case GradeNone:
		return "no findings"
	case GradeMild:
		return "mild"
	case GradeSevere:
		return "severe"
	default:
		return "unknown"
	}
}

// SeverityGrader is a 3D DenseNet with a multi-class head.
type SeverityGrader struct {
	trunk *Classifier // reuses the binary classifier's feature trunk
	fc    *nn.Linear  // replaces the binary head
	num   int
}

// NewSeverityGrader builds a grader over the given trunk configuration
// and class count.
func NewSeverityGrader(rng *rand.Rand, cfg Config, numClasses int) *SeverityGrader {
	if numClasses < 2 {
		panic("classify: severity grading needs at least two classes")
	}
	t := New(rng, cfg)
	// The trunk's fc maps features → 1; mirror its input width for the
	// multi-class head.
	width := t.fc.W.T.Shape[1]
	return &SeverityGrader{
		trunk: t,
		fc:    nn.NewLinear(rng, width, numClasses, cfg.InitStd),
		num:   numClasses,
	}
}

// Forward maps (N, 1, D, H, W) volumes to (N, C) class logits.
func (s *SeverityGrader) Forward(x *ag.Value) *ag.Value {
	feats := s.trunk.features(x)
	return s.fc.Forward(feats)
}

// Params returns the trainable parameters (trunk minus the unused
// binary head, plus the multi-class head).
func (s *SeverityGrader) Params() []*ag.Value {
	ps := s.trunk.Trunk.Params()
	return append(ps, s.fc.Params()...)
}

// SetTraining toggles batch-norm behaviour.
func (s *SeverityGrader) SetTraining(train bool) { s.trunk.SetTraining(train) }

// StateTensors exposes batch-norm statistics for serialization.
func (s *SeverityGrader) StateTensors() []*tensor.Tensor { return s.trunk.StateTensors() }

// Loss is softmax cross-entropy over integer grades.
func (s *SeverityGrader) Loss(logits *ag.Value, grades []Grade) *ag.Value {
	labels := make([]int, len(grades))
	for i, g := range grades {
		labels[i] = int(g)
	}
	return ag.CrossEntropyLoss(logits, labels)
}

// PredictGrade grades one volume (values in the training convention)
// and returns the argmax grade with the class probabilities.
func (s *SeverityGrader) PredictGrade(v *volume.Volume) (Grade, []float64) {
	s.SetTraining(false)
	x := ag.Const(tensor.FromSlice(v.Data, 1, 1, v.D, v.H, v.W))
	probsV := ag.Softmax(s.Forward(x))
	probs := make([]float64, s.num)
	best, bi := -1.0, 0
	for i := range probs {
		probs[i] = float64(probsV.T.Data[i])
		if probs[i] > best {
			best, bi = probs[i], i
		}
	}
	return Grade(bi), probs
}
