package segment

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"computecovid19/internal/dataset"
	"computecovid19/internal/volume"
)

// Parent-commit pins. The constants below were computed with the
// previous morphology (one closure call per voxel neighbour, through
// forNeighbors) and hard-coded here, so a rewrite of the closing is
// checked against the old masks rather than against itself.

// maskFold is FNV-64a over mask bits, one byte per voxel, across
// calls; set counts the lung voxels, so an all-empty fold shows.
type maskFold struct {
	buf []byte
	set int
}

func (f *maskFold) add(mask []bool) {
	for _, m := range mask {
		b := byte(0)
		if m {
			b = 1
			f.set++
		}
		f.buf = append(f.buf, b)
	}
}

func (f *maskFold) sum() uint64 {
	h := fnv.New64a()
	h.Write(f.buf)
	return h.Sum64()
}

// TestPinLungMasks folds the LungsInto masks of the phantom cohorts the
// benchmark scans (4 volumes per seed, seeds 1–4, at 8×64×64 and
// 24×32×32) and of random air/tissue volumes over every extent 1–9 on
// each axis, closing radii 0–3, into one checksum per group.
func TestPinLungMasks(t *testing.T) {
	var s Scratch
	for _, c := range []struct {
		depth, size int
		want        uint64
		set         int
	}{
		{8, 64, 0x24bb4bb8d42bf22c, 130031},
		{24, 32, 0x4ebfdf86e34cf629, 101784},
	} {
		var f maskFold
		for seed := int64(1); seed <= 4; seed++ {
			cfg := dataset.DefaultCohortConfig()
			cfg.Count, cfg.Depth, cfg.Size, cfg.Seed = 4, c.depth, c.size, seed
			for _, cs := range dataset.BuildCohort(cfg) {
				mask := make([]bool, len(cs.Volume.Data))
				s.LungsInto(cs.Volume, DefaultOptions(), mask)
				f.add(mask)
			}
		}
		if got := f.sum(); got != c.want || f.set != c.set {
			t.Errorf("%dx%dx%d cohort masks fold to %#x with %d lung voxels, parent %#x with %d",
				c.depth, c.size, c.size, got, f.set, c.want, c.set)
		}
	}

	rng := rand.New(rand.NewSource(33))
	var f maskFold
	for d := 1; d <= 9; d++ {
		for h := 1; h <= 9; h++ {
			for w := 1; w <= 9; w++ {
				v := volume.New(d, h, w)
				for i := range v.Data {
					v.Data[i] = 60
					if rng.Intn(5) < 3 {
						v.Data[i] = -800
					}
				}
				for radius := 0; radius <= 3; radius++ {
					opt := DefaultOptions()
					opt.MinComponentVoxels, opt.ClosingRadius = 1, radius
					mask := make([]bool, len(v.Data))
					s.LungsInto(v, opt, mask)
					f.add(mask)
				}
			}
		}
	}
	if got, want, wantSet := f.sum(), uint64(0x9e380fcbb7decbd0), 11593; got != want || f.set != wantSet {
		t.Errorf("odd-extent masks fold to %#x with %d lung voxels, parent %#x with %d", got, f.set, want, wantSet)
	}
}
