// Package segment implements Segmentation AI (§2.3.1, §3.2): pixel-wise
// lung segmentation of 3D chest CT volumes, producing the binary map
// that is multiplied into the scan before classification.
//
// The paper uses NVIDIA's pre-trained AH-Net model "as is"; no training
// was performed and no weights are published, so this reproduction
// substitutes a classical algorithmic segmenter with the same contract
// (volume in, binary lung map out): Hounsfield thresholding, clipping to
// the body hull (which removes the outside-body air), 3D
// connected-component selection of the lung fields, morphological
// closing to re-include vessels and COVID lesions, and per-slice hole
// filling. Every stage runs on one row-padded bitset, 64 voxels to a
// word: the hull from zero counts and row ORs, the components over row
// runs, the closing and the hole fill's flood by word shifts and adds.
// On our phantoms it reaches Dice > 0.9 against the generative ground
// truth, which is the regime the paper's segmenter operates in on real
// scans.
package segment

import (
	"computecovid19/internal/volume"
)

// Options tunes the segmenter. The zero value is not valid; use
// DefaultOptions.
type Options struct {
	// AirThresholdHU marks voxels below this value as candidate lung/air.
	AirThresholdHU float64
	// MinComponentVoxels drops connected components smaller than this.
	MinComponentVoxels int
	// MaxComponents keeps at most this many largest components (the two
	// lungs, possibly merged into one component at the carina).
	MaxComponents int
	// ClosingRadius is the box radius (voxels) of the morphological
	// closing that re-captures dense lesions and vessels.
	ClosingRadius int
	// FillHoles enables per-slice hole filling after closing.
	FillHoles bool
}

// DefaultOptions returns settings that work for both clinical-range HU
// volumes and our phantoms.
func DefaultOptions() Options {
	return Options{
		AirThresholdHU:     -350,
		MinComponentVoxels: 40,
		MaxComponents:      2,
		ClosingRadius:      2,
		FillHoles:          true,
	}
}

// Lungs segments the lung fields of an HU volume and returns a D*H*W
// mask (true = lung). The pipeline: Hounsfield thresholding, clipping
// candidate air to the body hull (a boundary flood fill is the
// textbook method but leaks through chest walls thinner than one voxel
// on coarse grids), keeping the largest interior air components (the
// lungs), morphological closing, and per-slice hole filling. It runs
// on a throwaway Scratch; repeated callers should hold a Scratch and
// use LungsInto, which computes the identical mask in reused memory.
func Lungs(v *volume.Volume, opt Options) []bool {
	mask := make([]bool, len(v.Data))
	NewScratch(nil).LungsInto(v, opt, mask)
	return mask
}

// Apply segments v and returns the masked volume (non-lung voxels
// zeroed), the operation Figure 3's Analysis AI performs before
// classification.
func Apply(v *volume.Volume, opt Options) (*volume.Volume, []bool) {
	mask := Lungs(v, opt)
	return v.ApplyMask(mask), mask
}

// Dice returns the Dice–Sørensen overlap of two masks: 2|A∩B|/(|A|+|B|).
// Two empty masks have Dice 1.
func Dice(a, b []bool) float64 {
	if len(a) != len(b) {
		panic("segment: Dice mask length mismatch")
	}
	inter, sum := 0, 0
	for i := range a {
		if a[i] && b[i] {
			inter++
		}
		if a[i] {
			sum++
		}
		if b[i] {
			sum++
		}
	}
	if sum == 0 {
		return 1
	}
	return 2 * float64(inter) / float64(sum)
}
