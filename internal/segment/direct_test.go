package segment

import (
	"fmt"
	"math/rand"
	"testing"

	"computecovid19/internal/dataset"
	"computecovid19/internal/volume"
)

// lungsDirect is the voxel-at-a-time segmenter that LungsInto's bitset
// stages replaced, kept as their oracle: []bool voxel maps, per-column
// and per-row tissue spans for the body hull, a voxel DFS for the
// components, the closing packed into and out of closeInPlace's bitset,
// and a voxel-stack flood for the hole fill. Every other stage visits
// one voxel at a time, so it shares no word arithmetic with LungsInto
// beyond closeBits, which TestCloseInPlaceMatchesClose3D pins to
// Close3D.
func lungsDirect(v *volume.Volume, opt Options) []bool {
	n := len(v.Data)
	d, h, w := v.D, v.H, v.W
	var s directScratch
	mask := make([]bool, n)

	air := make([]bool, n)
	for i, hu := range v.Data {
		air[i] = float64(hu) < opt.AirThresholdHU
	}
	inside := make([]bool, n)
	s.bodyHullInto(inside, d, h, w, air)
	for i := range air {
		air[i] = air[i] && inside[i]
	}

	// Size descending, discovery order breaking ties.
	seen := make([]bool, n)
	s.componentsInto(d, h, w, air, seen)
	nc := len(s.compOff) - 1
	picked := make([]bool, nc)
	for kept := 0; kept < opt.MaxComponents; kept++ {
		best, bestSize := -1, 0
		for c := 0; c < nc; c++ {
			if picked[c] {
				continue
			}
			if size := s.compOff[c+1] - s.compOff[c]; size > bestSize {
				best, bestSize = c, size
			}
		}
		if best < 0 || bestSize < opt.MinComponentVoxels {
			break
		}
		picked[best] = true
		for _, idx := range s.compIdx[s.compOff[best]:s.compOff[best+1]] {
			mask[idx] = true
		}
	}

	if opt.ClosingRadius > 0 {
		new(Scratch).closeInPlace(mask, d, h, w, opt.ClosingRadius)
	}
	if opt.FillHoles {
		s.fillHolesInPlace(mask, make([]bool, h*w), make([]bool, h*w), d, h, w)
	}
	return mask
}

// directScratch is lungsDirect's working memory.
type directScratch struct {
	queue   []int // DFS stack for components and hole filling
	compIdx []int // component voxel indices, concatenated
	compOff []int // compIdx offsets; component c is [compOff[c], compOff[c+1])
}

// bodyHullInto marks the voxels strictly between the first and last
// tissue voxel of their row and of their column, slice by slice.
func (s *directScratch) bodyHullInto(inside []bool, d, h, w int, air []bool) {
	colLo, colHi := make([]int, w), make([]int, w)
	for z := 0; z < d; z++ {
		base := z * h * w
		for x := 0; x < w; x++ {
			colLo[x], colHi[x] = h, -1
			for y := 0; y < h; y++ {
				if !air[base+y*w+x] {
					if y < colLo[x] {
						colLo[x] = y
					}
					colHi[x] = y
				}
			}
		}
		for y := 0; y < h; y++ {
			rowLo, rowHi := w, -1
			for x := 0; x < w; x++ {
				if !air[base+y*w+x] {
					if x < rowLo {
						rowLo = x
					}
					rowHi = x
				}
			}
			for x := 0; x < w; x++ {
				inside[base+y*w+x] = x > rowLo && x < rowHi &&
					y > colLo[x] && y < colHi[x]
			}
		}
	}
}

// componentsInto records the 6-connected components of mask in
// s.compIdx/s.compOff, numbered in the scan order of their first voxel.
func (s *directScratch) componentsInto(d, h, w int, mask, seen []bool) {
	s.compIdx = s.compIdx[:0]
	s.compOff = append(s.compOff[:0], 0)
	q := s.queue[:0]
	for start, m := range mask {
		if !m || seen[start] {
			continue
		}
		seen[start] = true
		q = append(q, start)
		for len(q) > 0 {
			idx := q[len(q)-1]
			q = q[:len(q)-1]
			s.compIdx = append(s.compIdx, idx)
			forNeighbors(d, h, w, idx, func(nb int) {
				if mask[nb] && !seen[nb] {
					seen[nb] = true
					q = append(q, nb)
				}
			})
		}
		s.compOff = append(s.compOff, len(s.compIdx))
	}
	s.queue = q[:0]
}

// closeInPlace closes mask in place through the word closing: the mask
// is packed into s.bits, closed by closeBits, and unpacked back.
func (s *Scratch) closeInPlace(mask []bool, d, h, w, radius int) {
	if len(mask) == 0 {
		return
	}
	wr := (w + 63) / 64
	last := ^uint64(0) >> (wr*64 - w)
	s.bits, s.bitsTmp = grow(s.bits, d*h*wr), grow(s.bitsTmp, d*h*wr)
	for r := 0; r < d*h; r++ { // pack
		words := s.bits[r*wr : (r+1)*wr]
		clear(words)
		for x, m := range mask[r*w : (r+1)*w] {
			if m {
				words[x>>6] |= 1 << (x & 63)
			}
		}
	}
	closeBits(s.bits, s.bitsTmp, d, h, wr, radius, last)
	for r := 0; r < d*h; r++ { // unpack
		words := s.bits[r*wr : (r+1)*wr]
		row := mask[r*w : (r+1)*w]
		for x := range row {
			row[x] = words[x>>6]>>(x&63)&1 != 0
		}
	}
}

// fillHolesInPlace sets, slice by slice, every unset voxel of mask that
// no 4-connected path of unset voxels joins to the slice border; open
// and reach are h·w scratch maps.
func (s *directScratch) fillHolesInPlace(mask, open, reach []bool, d, h, w int) {
	for z := 0; z < d; z++ {
		slice := mask[z*h*w : (z+1)*h*w]
		for i, m := range slice {
			open[i] = !m
			reach[i] = false
		}
		q := s.queue[:0]
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if y == 0 || y == h-1 || x == 0 || x == w-1 {
					if idx := y*w + x; open[idx] && !reach[idx] {
						reach[idx] = true
						q = append(q, idx)
					}
				}
			}
		}
		for len(q) > 0 {
			idx := q[len(q)-1]
			q = q[:len(q)-1]
			forNeighbors(1, h, w, idx, func(nb int) {
				if open[nb] && !reach[nb] {
					reach[nb] = true
					q = append(q, nb)
				}
			})
		}
		s.queue = q[:0]
		for i := range slice {
			if !slice[i] && !reach[i] {
				slice[i] = true
			}
		}
	}
}

// requireLungsDirect runs LungsInto on s and fails unless its mask is
// lungsDirect's bit for bit.
func requireLungsDirect(t *testing.T, s *Scratch, v *volume.Volume, opt Options, label string) {
	t.Helper()
	want := lungsDirect(v, opt)
	got := make([]bool, len(v.Data))
	s.LungsInto(v, opt, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s %dx%dx%d %+v: voxel %d (z %d y %d x %d) = %v, lungsDirect %v",
				label, v.D, v.H, v.W, opt, i, i/(v.H*v.W), i/v.W%v.H, i%v.W, got[i], want[i])
		}
	}
}

// airVolume is a d×h×w volume of tissue (60 HU) with air (−800 HU)
// wherever air says.
func airVolume(d, h, w int, air func(z, y, x int) bool) *volume.Volume {
	v := volume.New(d, h, w)
	for i := range v.Data {
		v.Data[i] = 60
		if air(i/(h*w), i/w%h, i%w) {
			v.Data[i] = -800
		}
	}
	return v
}

// tiedVolume is a body whose outer frame is outside air and whose
// inside holds boxes of one size through every slice, each later one
// further down and further left: every selection among them is a tie,
// which scan order breaks and x order would break the other way.
func tiedVolume(d, h, w, boxes int) *volume.Volume {
	return airVolume(d, h, w, func(z, y, x int) bool {
		if y == 0 || y == h-1 || x == 0 || x == w-1 {
			return true
		}
		for b := range boxes {
			x0 := w - 5 - b*(w-6)/boxes // later boxes sit further left ...
			y0 := 2 + b*(h-4)/boxes     // ... and further down
			if x >= x0 && x < x0+2 && y >= y0 && y < y0+1+(h-4)/(2*boxes) {
				return true
			}
		}
		return false
	})
}

// TestLungsIntoMatchesDirect pins the bitset stages to lungsDirect bit
// for bit: on the dataset cohorts the benchmark scans, on random
// volumes whose rows end inside, at and past a word boundary, on
// volumes of equal-sized components (the selection's tie-break), and
// across the component count, the closing radius and the hole fill.
// One Scratch serves every call, so its buffers hold stale words from
// a different extent each time.
func TestLungsIntoMatchesDirect(t *testing.T) {
	var s Scratch
	for _, c := range [][2]int{{8, 64}, {24, 32}} {
		cfg := dataset.DefaultCohortConfig()
		cfg.Count, cfg.Depth, cfg.Size = 4, c[0], c[1]
		for _, cs := range dataset.BuildCohort(cfg) {
			for _, fill := range []bool{true, false} {
				opt := DefaultOptions()
				opt.FillHoles = fill
				requireLungsDirect(t, &s, cs.Volume, opt, "cohort")
			}
		}
	}

	var opts []Options
	for maxComp := 1; maxComp <= 3; maxComp++ {
		for radius := 0; radius <= 3; radius++ {
			for _, fill := range []bool{true, false} {
				opt := DefaultOptions()
				opt.MinComponentVoxels, opt.MaxComponents = 1, maxComp
				opt.ClosingRadius, opt.FillHoles = radius, fill
				opts = append(opts, opt)
			}
		}
	}
	rng := rand.New(rand.NewSource(38))
	for _, w := range []int{63, 64, 65, 127, 128, 130} {
		for d := 1; d <= 3; d++ {
			for _, h := range []int{1, 2, 7, 12} {
				for _, density := range []int{3, 6} { // air per 10 voxels
					v := airVolume(d, h, w, func(int, int, int) bool { return rng.Intn(10) < density })
					for _, opt := range opts {
						requireLungsDirect(t, &s, v, opt, fmt.Sprintf("random %d/10", density))
					}
				}
				for boxes := 2; boxes <= 3; boxes++ {
					for _, opt := range opts {
						requireLungsDirect(t, &s, tiedVolume(d, h, w, boxes), opt, fmt.Sprintf("%d tied boxes", boxes))
					}
				}
			}
		}
	}
}

// fuzzVolume decodes a fuzz input: the first six bytes give the extent
// (d ≤ 4, h ≤ 12, w ≤ 70, so rows cross a word) and the options, and
// the rest are air bits, one per voxel in scan order, cycled when
// short; no air bytes at all means no air.
func fuzzVolume(data []byte) (*volume.Volume, Options) {
	var head [6]byte
	copy(head[:], data)
	bitsAt := data[min(len(data), 6):]
	d, h, w := 1+int(head[0])%4, 1+int(head[1])%12, 1+int(head[2])%70
	opt := DefaultOptions()
	opt.MaxComponents = 1 + int(head[3])%3
	opt.ClosingRadius = int(head[4]) % 4
	opt.FillHoles = head[5]&1 == 1
	opt.MinComponentVoxels = 1 + int(head[5]>>1)%16
	v := airVolume(d, h, w, func(z, y, x int) bool {
		i := (z*h+y)*w + x
		return len(bitsAt) > 0 && bitsAt[i/8%len(bitsAt)]>>(i%8)&1 == 1
	})
	return v, opt
}

// fuzzInput is fuzzVolume's inverse for the seeds: maxComp, radius and
// fill as the options (MinComponentVoxels 1), air as the voxels.
func fuzzInput(d, h, w, maxComp, radius int, fill bool, air func(z, y, x int) bool) []byte {
	data := []byte{byte(d - 1), byte(h - 1), byte(w - 1), byte(maxComp - 1), byte(radius), 0}
	if fill {
		data[5] = 1
	}
	bitsAt := make([]byte, (d*h*w+7)/8)
	for i := range d * h * w {
		if air(i/(h*w), i/w%h, i%w) {
			bitsAt[i/8] |= 1 << (i % 8)
		}
	}
	return append(data, bitsAt...)
}

// FuzzLungsInto checks LungsInto against lungsDirect bit for bit on
// small volumes decoded by fuzzVolume.
func FuzzLungsInto(f *testing.F) {
	all := func(int, int, int) bool { return true }
	none := func(int, int, int) bool { return false }
	f.Add(fuzzInput(2, 6, 70, 2, 1, true, all))
	f.Add(fuzzInput(2, 6, 70, 2, 1, true, none))
	// A tissue body whose holes open onto every border of a slice,
	// around air that the hull keeps.
	f.Add(fuzzInput(2, 12, 70, 3, 0, true, func(z, y, x int) bool {
		inner := y >= 3 && y < 9 && x >= 3 && x < 66
		hole := (y == 0 || y == 11 || x == 0 || x == 69) && (x+y)%5 == 0
		return inner && (x/8+z)%2 == 0 || hole
	}))
	f.Add(fuzzInput(3, 12, 70, 3, 0, true, func(z, y, x int) bool {
		return y > 0 && y < 11 && x > 0 && x < 69 && (x+y+z)%2 == 0 // joined only diagonally
	}))
	f.Add(fuzzInput(4, 12, 70, 1, 0, false, func(z, y, x int) bool {
		return tiedVolume(4, 12, 70, 2).Data[(z*12+y)*70+x] < 0
	}))
	// Lungs around a tissue channel that opens onto the left (then the
	// right) border and crosses the row's word boundary: only a reach
	// carried across words keeps the channel's far end open.
	f.Add(fuzzInput(1, 5, 70, 1, 0, true, func(_, y, x int) bool {
		return y > 0 && y < 4 && x > 0 && x < 69 && (y != 2 || x > 66)
	}))
	f.Add(fuzzInput(1, 5, 70, 1, 0, true, func(_, y, x int) bool {
		return y > 0 && y < 4 && x > 0 && x < 69 && (y != 2 || x < 3)
	}))
	// A radius-3 closing over four slices sets voxels at x = 0 around an
	// open one that only the border-column seeds reach: found by fuzzing
	// a flood seeded from the border rows alone.
	f.Add([]byte("7#80710\xef8B280\xee"))
	var s Scratch
	f.Fuzz(func(t *testing.T, data []byte) {
		v, opt := fuzzVolume(data)
		requireLungsDirect(t, &s, v, opt, "fuzz")
	})
}

// BenchmarkLungsInto times the warm segmenter on an 8×64×64 cohort
// phantom, the shape the classify.direct workload of bench/ serves.
func BenchmarkLungsInto(b *testing.B) {
	cfg := dataset.DefaultCohortConfig()
	cfg.Count, cfg.Depth, cfg.Size = 1, 8, 64
	v := dataset.BuildCohort(cfg)[0].Volume
	mask := make([]bool, len(v.Data))
	var s Scratch
	s.LungsInto(v, DefaultOptions(), mask)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		s.LungsInto(v, DefaultOptions(), mask)
	}
}
