// Package computecovid19 is a from-scratch Go reproduction of
// "ComputeCOVID19+: Accelerating COVID-19 Diagnosis and Monitoring via
// High-Performance Deep Learning on CT Images" (Goel et al., ICPP 2021).
//
// It provides the paper's full stack with no dependencies beyond the
// standard library:
//
//   - DDnet, the DenseNet + Deconvolution enhancement network, with a
//     tape-based autograd engine, Adam, and the composite
//     MSE + 0.1·(1−MS-SSIM) loss (internal/ddnet, internal/ag,
//     internal/nn);
//   - the CT physics used to simulate low-dose scans: Siddon ray-driven
//     fan-beam projection, Beer's-law Poisson noise, and filtered back
//     projection (internal/ctsim, internal/phantom);
//   - lung segmentation and a 3D DenseNet classifier
//     (internal/segment, internal/classify);
//   - the OpenCL-style inference kernels with the paper's optimization
//     ladder and operation counters, plus a roofline model of the six
//     evaluation platforms (internal/kernels, internal/device);
//   - synchronous data-parallel training with a ring all-reduce
//     (internal/distrib);
//   - and a per-table/per-figure experiment harness
//     (internal/experiments) driven by cmd/ccbench and the root
//     benchmarks.
//
// This facade re-exports the pipeline-level API so the examples and
// external tools have one import path; the subsystem packages remain the
// source of truth.
package computecovid19

import (
	"math/rand"

	"computecovid19/internal/classify"
	"computecovid19/internal/core"
	"computecovid19/internal/dataset"
	"computecovid19/internal/ddnet"
	"computecovid19/internal/volume"
)

// Pipeline is the ComputeCOVID19+ diagnostic pipeline: Enhancement AI →
// Segmentation AI → Classification AI.
type Pipeline = core.Pipeline

// Result is one scan's diagnosis.
type Result = core.Result

// Volume is a 3D CT volume in Hounsfield units.
type Volume = volume.Volume

// Case is a labelled scan of a synthetic cohort.
type Case = dataset.Case

// EnhancementPair is a clean/low-dose training pair for DDnet.
type EnhancementPair = dataset.EnhancementPair

// NewPipeline assembles a pipeline from an optional enhancer and a
// classifier.
func NewPipeline(enh *ddnet.DDnet, cls *classify.Classifier) *Pipeline {
	return core.NewPipeline(enh, cls)
}

// NewDDnet builds the paper's enhancement network; use
// ddnet.PaperConfig() for the Table 2 architecture or
// ddnet.TinyConfig() for a laptop-scale variant.
func NewDDnet(seed int64, cfg ddnet.Config) *ddnet.DDnet {
	return ddnet.New(rand.New(rand.NewSource(seed)), cfg)
}

// NewClassifier builds the 3D DenseNet classifier; use
// classify.SmallConfig() for a laptop-scale variant of the paper's
// DenseNet-121 (whose widths its doc comment lists).
func NewClassifier(seed int64, cfg classify.Config) *classify.Classifier {
	return classify.New(rand.New(rand.NewSource(seed)), cfg)
}

// BuildEnhancementPairs generates synthetic clean/low-dose training
// pairs through the full CT physics chain.
func BuildEnhancementPairs(cfg dataset.EnhancementConfig) []EnhancementPair {
	return dataset.BuildEnhancement(cfg)
}

// BuildCohort generates a labelled synthetic screening cohort.
func BuildCohort(cfg dataset.CohortConfig) []Case {
	return dataset.BuildCohort(cfg)
}

// TrainEnhancer trains DDnet with the paper's composite loss and
// returns the per-epoch loss curve.
func TrainEnhancer(m *ddnet.DDnet, pairs []EnhancementPair, cfg core.EnhancerTrainingConfig) []float64 {
	return core.TrainEnhancer(m, pairs, cfg)
}

// TrainClassifier trains the 3D classifier with binary cross-entropy
// and returns the per-epoch loss curve.
func TrainClassifier(c *classify.Classifier, cases []Case, cfg core.ClassifierTrainingConfig) []float64 {
	return core.TrainClassifier(c, cases, cfg)
}
