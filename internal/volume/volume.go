// Package volume provides the 3D CT volume container shared by the
// pipeline stages, plus Hounsfield windowing and image export (PNG/PGM)
// for visual inspection of slices, sinograms, and difference maps.
package volume

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"os"

	"computecovid19/internal/ctsim"
	"computecovid19/internal/tensor"
)

// Volume is a 3D scalar field in Hounsfield units (or any scalar unit),
// stored as D row-major slices of H×W.
type Volume struct {
	D, H, W int
	Data    []float32
}

// New allocates a zero volume.
func New(d, h, w int) *Volume {
	return &Volume{D: d, H: h, W: w, Data: make([]float32, d*h*w)}
}

// FromSlices builds a volume from per-slice data (each of length H*W).
func FromSlices(h, w int, slices ...[]float32) *Volume {
	v := New(len(slices), h, w)
	for z, s := range slices {
		if len(s) != h*w {
			panic(fmt.Sprintf("volume: slice %d has %d pixels, want %d", z, len(s), h*w))
		}
		copy(v.Slice(z), s)
	}
	return v
}

// Slice returns slice z as a live row-major view.
func (v *Volume) Slice(z int) []float32 {
	return v.Data[z*v.H*v.W : (z+1)*v.H*v.W]
}

// At returns the voxel at (z, y, x).
func (v *Volume) At(z, y, x int) float32 { return v.Data[(z*v.H+y)*v.W+x] }

// Set stores a voxel at (z, y, x).
func (v *Volume) Set(val float32, z, y, x int) { v.Data[(z*v.H+y)*v.W+x] = val }

// Clone returns a deep copy.
func (v *Volume) Clone() *Volume {
	c := New(v.D, v.H, v.W)
	copy(c.Data, v.Data)
	return c
}

// Tensor views the volume as a (D, H, W) tensor sharing storage.
func (v *Volume) Tensor() *tensor.Tensor {
	return tensor.FromSlice(v.Data, v.D, v.H, v.W)
}

// FromTensor wraps a rank-3 (D,H,W) tensor as a volume sharing storage.
func FromTensor(t *tensor.Tensor) *Volume {
	if t.Rank() != 3 {
		panic(fmt.Sprintf("volume: want rank-3 tensor, got %v", t.Shape))
	}
	return &Volume{D: t.Shape[0], H: t.Shape[1], W: t.Shape[2], Data: t.Data}
}

// Normalized returns a copy mapped from the HU window [lo, hi] to
// [0, 1], the network input convention (§3.1.1).
func (v *Volume) Normalized(lo, hi float64) *Volume {
	out := New(v.D, v.H, v.W)
	for i, x := range v.Data {
		out.Data[i] = float32(ctsim.NormalizeHU(float64(x), lo, hi))
	}
	return out
}

// ApplyMask zeroes voxels where mask is false (mask length D*H*W),
// producing the segmented volume the classifier consumes (§3.2).
func (v *Volume) ApplyMask(mask []bool) *Volume {
	if len(mask) != len(v.Data) {
		panic("volume: mask size mismatch")
	}
	out := v.Clone()
	for i, keep := range mask {
		if !keep {
			out.Data[i] = 0
		}
	}
	return out
}

// SliceImage renders slice z as an 8-bit grayscale image over the value
// window [lo, hi].
func (v *Volume) SliceImage(z int, lo, hi float64) *image.Gray {
	img := image.NewGray(image.Rect(0, 0, v.W, v.H))
	s := v.Slice(z)
	for y := 0; y < v.H; y++ {
		for x := 0; x < v.W; x++ {
			val := (float64(s[y*v.W+x]) - lo) / (hi - lo)
			if val < 0 {
				val = 0
			} else if val > 1 {
				val = 1
			}
			img.SetGray(x, y, color.Gray{Y: uint8(val*254 + 0.5)})
		}
	}
	return img
}

// SavePNG writes slice z as a PNG over the value window [lo, hi].
func (v *Volume) SavePNG(path string, z int, lo, hi float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := png.Encode(f, v.SliceImage(z, lo, hi)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
