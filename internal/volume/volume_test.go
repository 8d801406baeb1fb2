package volume

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"computecovid19/internal/ctsim"
)

// The three helpers below are the test metrics and round-trip oracle of
// this file; no program calls them.

// Denormalized maps a [0,1] volume back to the HU window [lo, hi].
func (v *Volume) Denormalized(lo, hi float64) *Volume {
	out := New(v.D, v.H, v.W)
	for i, x := range v.Data {
		out.Data[i] = float32(ctsim.DenormalizeHU(float64(x), lo, hi))
	}
	return out
}

// MinMax returns the smallest and largest voxel values.
func (v *Volume) MinMax() (float32, float32) {
	lo, hi := v.Data[0], v.Data[0]
	for _, x := range v.Data[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// AbsDiff returns |v - o| voxelwise — the paper's Figure 12 difference
// maps.
func (v *Volume) AbsDiff(o *Volume) *Volume {
	if v.D != o.D || v.H != o.H || v.W != o.W {
		panic("volume: AbsDiff shape mismatch")
	}
	out := New(v.D, v.H, v.W)
	for i := range v.Data {
		d := v.Data[i] - o.Data[i]
		if d < 0 {
			d = -d
		}
		out.Data[i] = d
	}
	return out
}

func TestVolumeAccessors(t *testing.T) {
	v := New(2, 3, 4)
	v.Set(7, 1, 2, 3)
	if v.At(1, 2, 3) != 7 {
		t.Fatal("Set/At round trip failed")
	}
	s := v.Slice(1)
	if s[2*4+3] != 7 {
		t.Fatal("Slice does not alias storage")
	}
	c := v.Clone()
	c.Set(9, 0, 0, 0)
	if v.At(0, 0, 0) == 9 {
		t.Fatal("Clone shares storage")
	}
}

func TestFromSlices(t *testing.T) {
	s0 := []float32{1, 2, 3, 4}
	s1 := []float32{5, 6, 7, 8}
	v := FromSlices(2, 2, s0, s1)
	if v.D != 2 || v.At(1, 1, 1) != 8 {
		t.Fatalf("FromSlices wrong: %+v", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong slice size")
		}
	}()
	FromSlices(2, 2, []float32{1})
}

func TestTensorRoundTrip(t *testing.T) {
	v := New(2, 2, 2)
	v.Set(5, 1, 0, 1)
	tt := v.Tensor()
	if tt.At(1, 0, 1) != 5 {
		t.Fatal("Tensor view wrong")
	}
	back := FromTensor(tt)
	back.Set(6, 0, 0, 0)
	if v.At(0, 0, 0) != 6 {
		t.Fatal("FromTensor should share storage")
	}
}

func TestNormalizeRoundTrip(t *testing.T) {
	v := New(1, 2, 2)
	copy(v.Data, []float32{-1000, -500, 0, 1000})
	n := v.Normalized(-1000, 1000)
	if n.Data[0] != 0 || n.Data[3] != 1 {
		t.Fatalf("Normalized = %v", n.Data)
	}
	d := n.Denormalized(-1000, 1000)
	for i := range v.Data {
		if math.Abs(float64(d.Data[i]-v.Data[i])) > 0.5 {
			t.Fatalf("denormalize mismatch at %d: %v vs %v", i, d.Data[i], v.Data[i])
		}
	}
}

func TestApplyMask(t *testing.T) {
	v := New(1, 2, 2)
	copy(v.Data, []float32{1, 2, 3, 4})
	masked := v.ApplyMask([]bool{true, false, false, true})
	want := []float32{1, 0, 0, 4}
	for i := range want {
		if masked.Data[i] != want[i] {
			t.Fatalf("masked = %v, want %v", masked.Data, want)
		}
	}
	if v.Data[1] != 2 {
		t.Fatal("ApplyMask must not mutate the input")
	}
}

func TestMinMax(t *testing.T) {
	v := New(1, 1, 3)
	copy(v.Data, []float32{5, -2, 3})
	lo, hi := v.MinMax()
	if lo != -2 || hi != 5 {
		t.Fatalf("MinMax = %v, %v", lo, hi)
	}
}

func TestAbsDiff(t *testing.T) {
	a := New(1, 1, 2)
	b := New(1, 1, 2)
	copy(a.Data, []float32{3, -1})
	copy(b.Data, []float32{1, 2})
	d := a.AbsDiff(b)
	if d.Data[0] != 2 || d.Data[1] != 3 {
		t.Fatalf("AbsDiff = %v", d.Data)
	}
}

func TestSliceImageWindowing(t *testing.T) {
	v := New(1, 1, 3)
	copy(v.Data, []float32{-2000, 0, 2000})
	img := v.SliceImage(0, -1000, 1000)
	if img.GrayAt(0, 0).Y != 0 {
		t.Fatalf("below-window pixel = %d, want 0", img.GrayAt(0, 0).Y)
	}
	if img.GrayAt(2, 0).Y != 254 {
		t.Fatalf("above-window pixel = %d, want 254", img.GrayAt(2, 0).Y)
	}
	mid := img.GrayAt(1, 0).Y
	if mid < 120 || mid > 135 {
		t.Fatalf("mid-window pixel = %d, want ~127", mid)
	}
}

func TestSavePNG(t *testing.T) {
	v := New(1, 4, 4)
	for i := range v.Data {
		v.Data[i] = float32(i * 10)
	}
	path := filepath.Join(t.TempDir(), "slice.png")
	if err := v.SavePNG(path, 0, 0, 160); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil || info.Size() == 0 {
		t.Fatalf("PNG not written: %v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	v := New(2, 3, 4)
	for i := range v.Data {
		v.Data[i] = float32(i) - 500
	}
	path := filepath.Join(t.TempDir(), "scan.ccvol")
	if err := v.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.D != 2 || got.H != 3 || got.W != 4 {
		t.Fatalf("dims %dx%dx%d", got.D, got.H, got.W)
	}
	for i := range v.Data {
		if got.Data[i] != v.Data[i] {
			t.Fatalf("voxel %d = %v, want %v", i, got.Data[i], v.Data[i])
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk.ccvol")
	if err := os.WriteFile(path, []byte("not a volume at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Fatal("expected error for junk file")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	v := New(4, 8, 8)
	path := filepath.Join(t.TempDir(), "trunc.ccvol")
	if err := v.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Fatal("expected error for truncated file")
	}
}
