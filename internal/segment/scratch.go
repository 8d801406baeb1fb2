package segment

import (
	"math/bits"

	"computecovid19/internal/memplan"
	"computecovid19/internal/volume"
)

// Scratch holds the segmenter's working memory, so repeated
// segmentations of same-sized volumes allocate nothing: every stage
// works on row-padded bitsets (d·h rows of wr = ⌈w/64⌉ words; bit j of
// a row's word k is voxel x = 64k + j) and on a list of the rows' runs
// of set bits, and all of them grow once to their high-water mark. A
// Scratch serves one segmentation at a time; give each worker its own
// or serialize access.
type Scratch struct {
	bits    []uint64 // the mask
	bitsTmp []uint64 // the closing's other buffer, then the hole fill's reach
	plane   []uint64 // a slice and a row: the hull's ORs, the fill's open bits
	runs    []run    // the air's runs, in scan order
	rowRun  []int    // row r's runs are runs[rowRun[r]:rowRun[r+1]]
}

// run is one maximal run of set bits in a bitset row, and its node in
// the union-find over 6-connected components.
type run struct {
	x0, x1 int32 // the run is voxels [x0, x1) of its row
	parent int32 // union-find link, always to a run no later in scan order
	size   int32 // a root's component voxel count, negated once it is kept
}

// NewScratch returns an empty Scratch. Its bitsets are its own, not
// arena buffers; the arena parameter keeps the pooled callers' sites.
func NewScratch(*memplan.Arena) *Scratch { return &Scratch{} }

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// LungsInto segments the lung fields of v into the caller-provided
// mask (len D·H·W, fully overwritten). It computes exactly what Lungs
// computes — Lungs delegates here — with every intermediate in the
// scratch memory: the air is packed into a bitset once, every stage
// works on words, and the result is unpacked once into mask.
func (s *Scratch) LungsInto(v *volume.Volume, opt Options, mask []bool) {
	if len(mask) != len(v.Data) {
		panic("segment: LungsInto mask length must match the volume")
	}
	if len(mask) == 0 {
		return
	}
	d, h, w := v.D, v.H, v.W
	wr := (w + 63) / 64
	last := ^uint64(0) >> (wr*64 - w) // the real voxels of a row's last word
	s.bits, s.bitsTmp = grow(s.bits, d*h*wr), grow(s.bitsTmp, d*h*wr)
	s.plane = grow(s.plane, (h+1)*wr)

	// Candidate lung/air voxels, clipped to the body hull (see Lungs for
	// why not a boundary flood); the largest few components are the lungs.
	packAir(s.bits, v.Data, w, wr, opt.AirThresholdHU)
	s.clipToHull(s.bits, d, h, wr, last)
	s.keepLargest(s.bits, d, h, wr, opt)
	closeBits(s.bits, s.bitsTmp, d, h, wr, opt.ClosingRadius, last)
	if opt.FillHoles {
		s.fillHoles(s.bits, s.bitsTmp, d, h, wr, last)
	}
	unpack(mask, s.bits, w, wr)
}

// packAir packs the voxels of hu (rows of w) below threshold into the
// bitset m (rows of wr words). A row's voxels go in last first, each
// doubling the word, which keeps a variable shift out of the loop.
func packAir(m []uint64, hu []float32, w, wr int, threshold float64) {
	for r := range len(hu) / w {
		row := hu[r*w : (r+1)*w]
		for k := range wr {
			var word uint64
			part := row[64*k : min(64*k+64, w)]
			for j := len(part) - 1; j >= 0; j-- {
				var b uint64
				if float64(part[j]) < threshold {
					b = 1
				}
				word = 2*word + b
			}
			m[r*wr+k] = word
		}
	}
}

// unpack writes the bitset m (rows of wr words) into mask (rows of w).
func unpack(mask []bool, m []uint64, w, wr int) {
	for r := range len(mask) / w {
		row, words := mask[r*w:(r+1)*w], m[r*wr:(r+1)*wr]
		for x := range row {
			row[x] = words[x>>6]>>(x&63)&1 != 0
		}
	}
}

// complement writes the complement of the bitset src (rows of wr
// words) into dst, padding cleared.
func complement(dst, src []uint64, wr int, last uint64) {
	for i, v := range src {
		dst[i] = ^v
	}
	for i := wr - 1; i < len(dst); i += wr {
		dst[i] &= last
	}
}

// span is the mask of the bits of a row's word k whose voxel x is in
// [x0, x1).
func span(k, x0, x1 int) uint64 {
	a, b := max(x0-64*k, 0), min(x1-64*k, 64)
	if a >= b {
		return 0
	}
	return ^uint64(0) >> (64 - (b - a)) << a
}

// clipToHull keeps the air bits strictly inside the body hull: slice by
// slice, strictly between the first and last tissue voxel of their row
// and of their column. The row's span comes from the trailing and
// leading zero counts of its tissue words; the column condition is
// tissue somewhere above (a prefix OR of the rows, swept downward) and
// somewhere below (a suffix OR, swept upward beforehand).
func (s *Scratch) clipToHull(air []uint64, d, h, wr int, last uint64) {
	tissue, below, above := s.bitsTmp, s.plane[:h*wr], s.plane[h*wr:]
	complement(tissue, air, wr, last)
	for z := 0; z < d; z++ {
		sl, ts := air[z*h*wr:(z+1)*h*wr], tissue[z*h*wr:(z+1)*h*wr]
		clear(below[(h-1)*wr:])
		for i := (h-1)*wr - 1; i >= 0; i-- {
			below[i] = below[i+wr] | ts[i+wr]
		}
		clear(above)
		for y := 0; y < h; y++ {
			lo, hi := -1, -1 // the row's first and last tissue voxel
			for k, t := range ts[y*wr : (y+1)*wr] {
				if t != 0 {
					if lo < 0 {
						lo = 64*k + bits.TrailingZeros64(t)
					}
					hi = 64*k + 63 - bits.LeadingZeros64(t)
				}
			}
			for k := range above {
				sl[y*wr+k] &= above[k] & below[y*wr+k] & span(k, lo+1, hi)
				above[k] |= ts[y*wr+k]
			}
		}
	}
}

// keepLargest replaces the air bitset with its opt.MaxComponents largest
// 6-connected components of at least opt.MinComponentVoxels voxels.
// Components are labelled over row runs by union-find, each run joined
// to the runs it overlaps in the row above (y−1) and the slice before
// (z−1). A union links the later root under the earlier, so every root
// is its component's first run in scan order, and the selection —
// size descending, ties to the component whose first voxel comes first
// — scans the roots in that order.
func (s *Scratch) keepLargest(air []uint64, d, h, wr int, opt Options) {
	rows := d * h
	s.rowRun = grow(s.rowRun, rows+1)
	rowRun, runs := s.rowRun, s.runs[:0]
	for r := range rows {
		rowRun[r] = len(runs)
		var carry uint64
		for k, a := range air[r*wr : (r+1)*wr] {
			edge := a ^ (a<<1 | carry) // bits that differ from the voxel before
			carry = a >> 63
			for ; edge != 0; edge &= edge - 1 { // a start, or an open run's end
				x := int32(64*k + bits.TrailingZeros64(edge))
				if n := len(runs); n > rowRun[r] && runs[n-1].x1 == int32(64*wr) {
					runs[n-1].x1 = x
				} else {
					runs = append(runs, run{x0: x, x1: int32(64 * wr), parent: int32(n)})
				}
			}
		}
		rowRun[r+1] = len(runs)
		if r%h > 0 {
			unite(runs, rowRun[r-1], rowRun[r], rowRun[r], len(runs))
		}
		if r >= h {
			unite(runs, rowRun[r-h], rowRun[r-h+1], rowRun[r], len(runs))
		}
	}
	s.runs = runs
	for i := range runs { // every parent is a root once the earlier runs are flat
		runs[i].parent = runs[runs[i].parent].parent
		runs[runs[i].parent].size += runs[i].x1 - runs[i].x0
	}
	for kept := 0; kept < opt.MaxComponents; kept++ {
		best, bestSize := -1, int32(0)
		for i := range runs {
			if runs[i].size > bestSize { // only unpicked roots count up
				best, bestSize = i, runs[i].size
			}
		}
		if best < 0 || int(bestSize) < opt.MinComponentVoxels {
			break
		}
		runs[best].size = -bestSize
	}
	clear(air)
	for r := range rows {
		words := air[r*wr : (r+1)*wr]
		for _, rn := range runs[rowRun[r]:rowRun[r+1]] {
			if runs[rn.parent].size >= 0 {
				continue
			}
			for k := rn.x0 >> 6; k <= (rn.x1-1)>>6; k++ {
				words[k] |= span(int(k), int(rn.x0), int(rn.x1))
			}
		}
	}
}

// unite joins every run of one row to every run of another that it
// overlaps: runs[a:a1] and runs[b:b1], each sorted by x.
func unite(runs []run, a, a1, b, b1 int) {
	for a < a1 && b < b1 {
		if runs[a].x0 < runs[b].x1 && runs[b].x0 < runs[a].x1 {
			ra, rb := find(runs, int32(a)), find(runs, int32(b))
			runs[max(ra, rb)].parent = min(ra, rb)
		}
		if runs[a].x1 < runs[b].x1 {
			a++
		} else {
			b++
		}
	}
}

// find returns the root of run i, halving the path on the way.
func find(runs []run, i int32) int32 {
	for runs[i].parent != i {
		runs[i].parent = runs[runs[i].parent].parent
		i = runs[i].parent
	}
	return i
}

// closeBits closes the bitset m (d·h rows of wr words, zero padding):
// radius 6-neighbour dilations, then radius erosions, each a dilation of
// the complement. A dilation step is word shifts and ORs: along x within
// a row, carrying across its word boundaries, and along y and z a whole
// word at a time. Padding bits start each phase zero (the complement
// clears them). The x shift then carries bits into the padding, which
// change no voxel: a path back into the volume through the padding is
// never shorter than one inside it (the volume is a box). Morphology on
// booleans has a unique result, so this matches Close3D exactly. tmp is
// the other buffer; the dilations come in pairs, so the result ends in m.
func closeBits(m, tmp []uint64, d, h, wr, radius int, last uint64) {
	cur, other := m, tmp
	for range 2 { // dilate, then erode: dilate the complement
		for range radius {
			dilateBits(other, cur, d, h, wr)
			cur, other = other, cur
		}
		complement(cur, cur, wr, last)
	}
}

// dilateBits writes one 6-neighbour dilation step of the row-padded
// bitset src (d·h rows of wr words) into dst.
func dilateBits(dst, src []uint64, d, h, wr int) {
	plane := h * wr
	for z := 0; z < d; z++ {
		for y := 0; y < h; y++ {
			row := (z*h + y) * wr
			for i := row; i < row+wr; i++ {
				v := src[i]
				m := v | v<<1 | v>>1
				if i > row {
					m |= src[i-1] >> 63
				}
				if i < row+wr-1 {
					m |= src[i+1] << 63
				}
				if y > 0 {
					m |= src[i-wr]
				}
				if y < h-1 {
					m |= src[i+wr]
				}
				if z > 0 {
					m |= src[i-plane]
				}
				if z < d-1 {
					m |= src[i+plane]
				}
				dst[i] = m
			}
		}
	}
}

// fillHoles sets, slice by slice, every open (unset) bit of m that no
// 4-connected path of open bits joins to the slice border. The reach
// from the border is flooded word-parallel: seeded with the open bits
// of the border rows and columns and spread along each row, then swept
// down and up the slice by turns, each row taking in its predecessor's
// reach and spreading what it gained, until a sweep changes nothing.
func (s *Scratch) fillHoles(m, reach []uint64, d, h, wr int, last uint64) {
	open := s.plane[:h*wr]
	right := uint64(1) << (63 - bits.LeadingZeros64(last)) // x = w−1
	for z := 0; z < d; z++ {
		ms, rs := m[z*h*wr:(z+1)*h*wr], reach[z*h*wr:(z+1)*h*wr]
		complement(open, ms, wr, last)
		for y := 0; y < h; y++ {
			row, o := rs[y*wr:(y+1)*wr], open[y*wr:(y+1)*wr]
			clear(row)
			row[0] = o[0] & 1
			row[wr-1] |= o[wr-1] & right
			if y == 0 || y == h-1 {
				copy(row, o)
			}
			spreadRow(row, o)
		}
		// The first sweep down only shows the reach closed downward, so
		// the sweep up after it always runs.
		for step, n := 1, 0; sweepReach(rs, open, h, wr, step) || n == 0; step, n = -step, n+1 {
		}
		for i := range ms {
			ms[i] |= open[i] &^ rs[i]
		}
	}
}

// sweepReach runs one row sweep of the hole fill's flood, downward
// (step 1) or upward (step −1): each row ORs in the open bits under its
// predecessor's reach and, if that added any, spreads them. It reports
// whether any reach bit was added.
func sweepReach(reach, open []uint64, h, wr, step int) bool {
	changed := false
	y := 0
	if step < 0 {
		y = h - 1
	}
	for y += step; y >= 0 && y < h; y += step {
		r, o, prev := reach[y*wr:(y+1)*wr], open[y*wr:(y+1)*wr], reach[(y-step)*wr:(y-step+1)*wr]
		grew := false
		for k := range wr {
			if add := prev[k] & o[k] &^ r[k]; add != 0 {
				r[k] |= add
				grew = true
			}
		}
		if grew {
			spreadRow(r, o)
			changed = true
		}
	}
	return changed
}

// spreadRow sets every open bit of a row (words o) whose run of open
// bits holds a reached one (words r, a subset of o). Within a word,
// ((o + r) ^ o) & o sets the bits of o from the lowest bit of r in a
// run to the run's top; the same on the bit-reversed words spreads
// toward x = 0. Both carry into the next word when a run reaches the
// word's edge.
func spreadRow(r, o []uint64) {
	var carry uint64
	for k := range r {
		seed := r[k] | carry&o[k]
		r[k] = ((o[k]+seed)^o[k])&o[k] | seed
		carry = r[k] >> 63
	}
	carry = 0
	for k := len(r) - 1; k >= 0; k-- {
		ro, seed := bits.Reverse64(o[k]), bits.Reverse64(r[k]|carry<<63&o[k])
		down := ((ro+seed)^ro)&ro | seed
		carry = down >> 63
		r[k] = bits.Reverse64(down)
	}
}
