package segment

import (
	"computecovid19/internal/memplan"
	"computecovid19/internal/volume"
)

// Scratch holds the segmenter's working memory so repeated
// segmentations of same-sized volumes allocate nothing: bool voxel maps
// come from a memplan arena (or plain make when mem is nil), and the
// integer stacks grow once to their high-water mark and are reused.
// A Scratch serves one segmentation at a time; give each worker its
// own or serialize access.
type Scratch struct {
	mem *memplan.Arena

	queue   []int // DFS stack for components and hole filling
	compIdx []int // component voxel indices, concatenated
	compOff []int // compIdx offsets; component c is [compOff[c], compOff[c+1])
	picked  []int // selection marks, one per component (0 = unpicked)
	colLo   []int // per-slice dense-tissue column spans (bodyHull)
	colHi   []int
	// bits and bitsTmp are the closing's row-padded bitsets (closeInPlace).
	bits, bitsTmp []uint64
}

// NewScratch builds a Scratch drawing bool buffers from mem. A nil mem
// falls back to plain allocation, which keeps Lungs and the pooled
// path running byte-identical code.
func NewScratch(mem *memplan.Arena) *Scratch { return &Scratch{mem: mem} }

func (s *Scratch) getBools(n int) []bool {
	if s.mem != nil {
		return s.mem.GetBools(n)
	}
	return make([]bool, n)
}

func (s *Scratch) putBools(b []bool) {
	if s.mem != nil {
		s.mem.PutBools(b)
	}
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growWords(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// LungsInto segments the lung fields of v into the caller-provided
// mask (len D·H·W, fully overwritten). It computes exactly what Lungs
// computes — Lungs delegates here — with every intermediate drawn from
// the scratch memory.
func (s *Scratch) LungsInto(v *volume.Volume, opt Options, mask []bool) {
	n := len(v.Data)
	if len(mask) != n {
		panic("segment: LungsInto mask length must match the volume")
	}
	d, h, w := v.D, v.H, v.W

	// Candidate lung/air voxels.
	air := s.getBools(n)
	for i, hu := range v.Data {
		air[i] = float64(hu) < opt.AirThresholdHU
	}

	// Clip to the body hull (see Lungs for why not a boundary flood).
	inside := s.getBools(n)
	s.bodyHullInto(inside, d, h, w, air)
	for i := range air {
		air[i] = air[i] && inside[i] // air now holds the clipped candidates
	}

	// Connected components of the candidate air, then the largest few
	// become the lung mask. Selection is deterministic: size
	// descending, discovery order breaking ties (sort.Slice is
	// unstable, so the pre-pooled code could keep either of two
	// equal-sized components).
	seen := inside // the hull is no longer needed; reuse as the DFS seen set
	for i := range seen {
		seen[i] = false
	}
	s.componentsInto(d, h, w, air, seen)
	for i := range mask {
		mask[i] = false
	}
	nc := len(s.compOff) - 1
	s.picked = growInts(s.picked, nc)
	for c := range s.picked {
		s.picked[c] = 0
	}
	for kept := 0; kept < opt.MaxComponents; kept++ {
		best, bestSize := -1, 0
		for c := 0; c < nc; c++ {
			if s.picked[c] != 0 {
				continue
			}
			if size := s.compOff[c+1] - s.compOff[c]; size > bestSize {
				best, bestSize = c, size
			}
		}
		if best < 0 || bestSize < opt.MinComponentVoxels {
			break
		}
		s.picked[best] = 1
		for _, idx := range s.compIdx[s.compOff[best]:s.compOff[best+1]] {
			mask[idx] = true
		}
	}

	if opt.ClosingRadius > 0 {
		s.closeInPlace(mask, d, h, w, opt.ClosingRadius)
	}
	if opt.FillHoles {
		// air and inside are both free now.
		s.fillHolesInPlace(mask, air[:h*w], inside[:h*w], d, h, w)
	}
	s.putBools(inside)
	s.putBools(air)
}

// bodyHullInto is bodyHull writing into a caller buffer.
func (s *Scratch) bodyHullInto(inside []bool, d, h, w int, air []bool) {
	s.colLo = growInts(s.colLo, w)
	s.colHi = growInts(s.colHi, w)
	colLo, colHi := s.colLo, s.colHi
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
// s.compIdx/s.compOff. The neighbor walk is inlined: a visitor closure
// would capture the growing DFS stack and heap-allocate per component.
func (s *Scratch) componentsInto(d, h, w int, mask, seen []bool) {
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
			x := idx % w
			y := (idx / w) % h
			z := idx / (w * h)
			if x > 0 {
				if nb := idx - 1; mask[nb] && !seen[nb] {
					seen[nb] = true
					q = append(q, nb)
				}
			}
			if x < w-1 {
				if nb := idx + 1; mask[nb] && !seen[nb] {
					seen[nb] = true
					q = append(q, nb)
				}
			}
			if y > 0 {
				if nb := idx - w; mask[nb] && !seen[nb] {
					seen[nb] = true
					q = append(q, nb)
				}
			}
			if y < h-1 {
				if nb := idx + w; mask[nb] && !seen[nb] {
					seen[nb] = true
					q = append(q, nb)
				}
			}
			if z > 0 {
				if nb := idx - w*h; mask[nb] && !seen[nb] {
					seen[nb] = true
					q = append(q, nb)
				}
			}
			if z < d-1 {
				if nb := idx + w*h; mask[nb] && !seen[nb] {
					seen[nb] = true
					q = append(q, nb)
				}
			}
		}
		s.compOff = append(s.compOff, len(s.compIdx))
	}
	s.queue = q[:0]
}

// closeInPlace closes mask in place: radius 6-neighbour dilations, then
// radius erosions, each a dilation of the complement. The mask is packed
// once into a bitset whose rows are padded to whole 64-bit words (bit j
// of a row's word k is voxel x = 64k + j), so a dilation step is word
// shifts and ORs: along x within a row, carrying across its word
// boundaries, and along y and z a whole word at a time. Padding bits
// start each phase zero (the complement clears them). The x shift then
// carries bits into the padding, which change no voxel: a path back into
// the volume through the padding is never shorter than one inside it
// (the volume is a box). Morphology on booleans has a unique result, so
// this matches Close3D exactly.
func (s *Scratch) closeInPlace(mask []bool, d, h, w, radius int) {
	if len(mask) == 0 {
		return
	}
	wr := (w + 63) / 64
	last := ^uint64(0) >> (wr*64 - w) // the real voxels of a row's last word
	s.bits = growWords(s.bits, d*h*wr)
	s.bitsTmp = growWords(s.bitsTmp, d*h*wr)
	cur, other := s.bits, s.bitsTmp
	for r := 0; r < d*h; r++ { // pack
		words := cur[r*wr : (r+1)*wr]
		clear(words)
		for x, m := range mask[r*w : (r+1)*w] {
			if m {
				words[x>>6] |= 1 << (x & 63)
			}
		}
	}
	for r := 0; r < radius; r++ { // dilate
		dilateBits(other, cur, d, h, wr)
		cur, other = other, cur
	}
	for r := 0; r < d*h; r++ { // erode = dilate the complement
		words := cur[r*wr : (r+1)*wr]
		for k := range words {
			words[k] = ^words[k]
		}
		words[wr-1] &= last
	}
	for r := 0; r < radius; r++ {
		dilateBits(other, cur, d, h, wr)
		cur, other = other, cur
	}
	for r := 0; r < d*h; r++ { // unpack the complement back
		words := cur[r*wr : (r+1)*wr]
		row := mask[r*w : (r+1)*w]
		for x := range row {
			row[x] = words[x>>6]>>(x&63)&1 == 0
		}
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

// fillHolesInPlace is fillHolesPerSlice with the per-slice open map,
// reach map, and flood stack drawn from scratch memory. The flood is
// seeded from the slice border exactly as floodFromBoundary does for
// a single-slice volume.
func (s *Scratch) fillHolesInPlace(mask, open, reach []bool, d, h, w int) {
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
			x := idx % w
			y := idx / w
			if x > 0 {
				if nb := idx - 1; open[nb] && !reach[nb] {
					reach[nb] = true
					q = append(q, nb)
				}
			}
			if x < w-1 {
				if nb := idx + 1; open[nb] && !reach[nb] {
					reach[nb] = true
					q = append(q, nb)
				}
			}
			if y > 0 {
				if nb := idx - w; open[nb] && !reach[nb] {
					reach[nb] = true
					q = append(q, nb)
				}
			}
			if y < h-1 {
				if nb := idx + w; open[nb] && !reach[nb] {
					reach[nb] = true
					q = append(q, nb)
				}
			}
		}
		s.queue = q[:0]
		for i := range slice {
			if !slice[i] && !reach[i] {
				slice[i] = true
			}
		}
	}
}
