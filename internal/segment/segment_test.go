package segment

import (
	"math/rand"
	"testing"
	"testing/quick"

	"computecovid19/internal/phantom"
	"computecovid19/internal/volume"
)

// phantomVolume renders a chest phantom into a Volume plus its ground
// truth lung mask.
func phantomVolume(seed int64, size, depth, lesions int) (*volume.Volume, []bool) {
	rng := rand.New(rand.NewSource(seed))
	c := phantom.NewChest(rng, size, depth)
	if lesions > 0 {
		c.AddRandomLesions(rng, lesions, 0.7)
	}
	v := volume.New(depth, size, size)
	truth := make([]bool, depth*size*size)
	for z := 0; z < depth; z++ {
		copy(v.Slice(z), c.SliceHU(z))
		copy(truth[z*size*size:(z+1)*size*size], c.LungMask(z))
	}
	return v, truth
}

func TestLungsDiceOnHealthyPhantom(t *testing.T) {
	v, truth := phantomVolume(1, 64, 8, 0)
	mask := Lungs(v, DefaultOptions())
	if d := Dice(mask, truth); d < 0.88 {
		t.Fatalf("healthy phantom Dice = %v, want > 0.88", d)
	}
}

func TestLungsDiceWithLesions(t *testing.T) {
	v, truth := phantomVolume(2, 64, 8, 4)
	mask := Lungs(v, DefaultOptions())
	if d := Dice(mask, truth); d < 0.80 {
		t.Fatalf("diseased phantom Dice = %v, want > 0.80", d)
	}
}

func TestLungsExcludesOutsideAir(t *testing.T) {
	v, _ := phantomVolume(3, 64, 4, 0)
	mask := Lungs(v, DefaultOptions())
	// Corner voxels are outside-body air and must not be lung.
	if mask[0] || mask[len(mask)-1] {
		t.Fatal("outside-body air classified as lung")
	}
}

func TestApplyZeroesNonLung(t *testing.T) {
	v, _ := phantomVolume(4, 64, 4, 0)
	seg, mask := Apply(v, DefaultOptions())
	for i, keep := range mask {
		if !keep && seg.Data[i] != 0 {
			t.Fatalf("voxel %d not zeroed outside lung", i)
		}
		if keep && seg.Data[i] != v.Data[i] {
			t.Fatalf("voxel %d altered inside lung", i)
		}
	}
}

func TestDiceProperties(t *testing.T) {
	a := []bool{true, true, false, false}
	b := []bool{true, false, true, false}
	if d := Dice(a, b); d != 0.5 {
		t.Fatalf("Dice = %v, want 0.5", d)
	}
	if Dice(a, a) != 1 {
		t.Fatal("Dice(x,x) must be 1")
	}
	if Dice([]bool{false}, []bool{false}) != 1 {
		t.Fatal("Dice of empty masks must be 1")
	}
	if Dice([]bool{true}, []bool{false}) != 0 {
		t.Fatal("Dice of disjoint masks must be 0")
	}
}

func TestMorphologyClosingBridgesGaps(t *testing.T) {
	// A 1-voxel hole inside a solid block must survive closing.
	d, h, w := 1, 7, 7
	mask := make([]bool, d*h*w)
	for y := 1; y < 6; y++ {
		for x := 1; x < 6; x++ {
			mask[y*w+x] = true
		}
	}
	mask[3*w+3] = false // hole
	closed := Close3D(mask, d, h, w, 1)
	if !closed[3*w+3] {
		t.Fatal("closing did not fill a unit hole")
	}
}

func TestErodeShrinksDilateGrows(t *testing.T) {
	d, h, w := 3, 5, 5
	mask := make([]bool, d*h*w)
	mask[(1*h+2)*w+2] = true // single voxel
	grown := Dilate3D(mask, d, h, w, 1)
	count := 0
	for _, m := range grown {
		if m {
			count++
		}
	}
	if count != 7 { // voxel + 6 neighbors
		t.Fatalf("dilated single voxel to %d voxels, want 7", count)
	}
	back := Erode3D(grown, d, h, w, 1)
	backCount := 0
	for _, m := range back {
		if m {
			backCount++
		}
	}
	if backCount != 1 || !back[(1*h+2)*w+2] {
		t.Fatalf("erode(dilate(x)) = %d voxels, want the original 1", backCount)
	}
}

// Property: closing never removes voxels (extensive operator).
func TestClosingExtensiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, h, w := 2, 6, 6
		mask := make([]bool, d*h*w)
		for i := range mask {
			mask[i] = rng.Intn(3) == 0
		}
		closed := Close3D(mask, d, h, w, 1)
		for i, m := range mask {
			if m && !closed[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dice is symmetric and in [0, 1].
func TestDiceSymmetryProperty(t *testing.T) {
	f := func(av, bv []bool) bool {
		n := len(av)
		if len(bv) < n {
			n = len(bv)
		}
		a, b := av[:n], bv[:n]
		d1, d2 := Dice(a, b), Dice(b, a)
		return d1 == d2 && d1 >= 0 && d1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFillHolesConsolidation(t *testing.T) {
	// A phantom with a big consolidation: the dense lesion falls out of
	// the air threshold but hole filling must bring it back.
	rng := rand.New(rand.NewSource(5))
	c := phantom.NewChest(rng, 64, 6)
	c.Lesions = []phantom.Lesion{{
		Kind: phantom.Consolidation,
		CX:   72, CY: 5, CZ: 0, RX: 14, RY: 14, RZ: 10,
	}}
	v := volume.New(6, 64, 64)
	for z := 0; z < 6; z++ {
		copy(v.Slice(z), c.SliceHU(z))
	}
	truth := make([]bool, 6*64*64)
	for z := 0; z < 6; z++ {
		copy(truth[z*64*64:(z+1)*64*64], c.LungMask(z))
	}
	mask := Lungs(v, DefaultOptions())
	if d := Dice(mask, truth); d < 0.75 {
		t.Fatalf("consolidation case Dice = %v, want > 0.75", d)
	}
}

// The reference morphology: out-of-place dilation, erosion and closing
// with one allocation per pass. LungsInto runs the bitset closing
// (closeBits, reached from []bool masks through closeInPlace); these
// are its oracle.

// Dilate3D grows mask by a box of the given radius (separable passes
// along x, y, z).
func Dilate3D(mask []bool, d, h, w, radius int) []bool {
	out := append([]bool(nil), mask...)
	for r := 0; r < radius; r++ {
		out = dilateOnce(out, d, h, w)
	}
	return out
}

// Erode3D shrinks mask by a box of the given radius.
func Erode3D(mask []bool, d, h, w, radius int) []bool {
	// Erosion is dilation of the complement.
	inv := make([]bool, len(mask))
	for i, m := range mask {
		inv[i] = !m
	}
	inv = Dilate3D(inv, d, h, w, radius)
	out := make([]bool, len(mask))
	for i, m := range inv {
		out[i] = !m
	}
	return out
}

// Close3D applies dilation followed by erosion, bridging small gaps
// (dense lesions inside lung).
func Close3D(mask []bool, d, h, w, radius int) []bool {
	return Erode3D(Dilate3D(mask, d, h, w, radius), d, h, w, radius)
}

// forNeighbors visits the in-volume 6-neighbours of voxel idx.
func forNeighbors(d, h, w, idx int, visit func(n int)) {
	x := idx % w
	y := (idx / w) % h
	z := idx / (w * h)
	if x > 0 {
		visit(idx - 1)
	}
	if x < w-1 {
		visit(idx + 1)
	}
	if y > 0 {
		visit(idx - w)
	}
	if y < h-1 {
		visit(idx + w)
	}
	if z > 0 {
		visit(idx - w*h)
	}
	if z < d-1 {
		visit(idx + w*h)
	}
}

func dilateOnce(mask []bool, d, h, w int) []bool {
	out := append([]bool(nil), mask...)
	for idx, m := range mask {
		if !m {
			continue
		}
		forNeighbors(d, h, w, idx, func(n int) { out[n] = true })
	}
	return out
}

// TestCloseInPlaceMatchesClose3D pins the closing LungsInto runs to the
// reference Close3D element for element, over every extent 1–9 on each
// axis and radii 0–3, on empty, full, single-voxel, face-touching and
// random masks. One Scratch serves every call, so its bitsets hold stale
// words from a larger or different extent each time; rows up to 130
// voxels wide (three words, the last one partly padding) run too.
func TestCloseInPlaceMatchesClose3D(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var s Scratch
	var extents [][3]int
	for d := 1; d <= 9; d++ {
		for h := 1; h <= 9; h++ {
			for w := 1; w <= 9; w++ {
				extents = append(extents, [3]int{d, h, w})
			}
		}
	}
	extents = append(extents, [3]int{2, 3, 63}, [3]int{2, 3, 64}, [3]int{3, 2, 65},
		[3]int{2, 2, 127}, [3]int{2, 2, 128}, [3]int{3, 3, 130})
	for _, e := range extents {
		d, h, w := e[0], e[1], e[2]
		n := d * h * w
		at := func(z, y, x int) int { return (z*h+y)*w + x }
		masks := map[string][]bool{
			"empty": make([]bool, n), "full": make([]bool, n),
			"corner": make([]bool, n), "centre": make([]bool, n),
			"shell": make([]bool, n), "face-centres": make([]bool, n),
			"sparse": make([]bool, n), "dense": make([]bool, n),
		}
		for i := range n {
			masks["full"][i] = true
			masks["sparse"][i] = rng.Intn(4) == 0
			masks["dense"][i] = rng.Intn(4) != 0
			z, y, x := i/(h*w), i/w%h, i%w
			masks["shell"][i] = z == 0 || z == d-1 || y == 0 || y == h-1 || x == 0 || x == w-1
		}
		masks["corner"][0] = true
		masks["centre"][at(d/2, h/2, w/2)] = true
		for _, i := range []int{
			at(0, h/2, w/2), at(d-1, h/2, w/2), at(d/2, 0, w/2),
			at(d/2, h-1, w/2), at(d/2, h/2, 0), at(d/2, h/2, w-1),
		} {
			masks["face-centres"][i] = true
		}
		for name, mask := range masks {
			for radius := 0; radius <= 3; radius++ {
				want := Close3D(mask, d, h, w, radius)
				got := append([]bool(nil), mask...)
				s.closeInPlace(got, d, h, w, radius)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s mask %dx%dx%d radius %d: voxel %d = %v, Close3D %v",
							name, d, h, w, radius, i, got[i], want[i])
					}
				}
			}
		}
	}
}
