package serve

import (
	"math"
	"runtime"
	"testing"

	"computecovid19/internal/volume"
)

// hashPinVolume is a fixed 4×32×33 volume — more voxels than
// VoxelKey's buffer holds, and not a multiple of it — with a negative
// zero among them, so the key sees raw bits rather than values.
func hashPinVolume() *volume.Volume {
	v := volume.New(4, 32, 33)
	for i := range v.Data {
		v.Data[i] = float32(i%977)*0.731 - 300
	}
	v.Data[5] = float32(math.Copysign(0, -1))
	return v
}

// TestCacheKeyPinned pins the result-cache key of a fixed volume, raw
// and pre-enhanced, to the hex values computed when every key hashed a
// whole-scan copy of the voxels; streaming them must not move a key.
// It also holds the bytes a key allocates below one 4 KiB buffer: the
// voxels stream through the stack, not through a heap copy.
func TestCacheKeyPinned(t *testing.T) {
	s := &Server{cfg: Config{ModelVersion: "pin-v1"}}
	v := hashPinVolume()
	for _, c := range []struct {
		pre  bool
		want string
	}{
		{false, "b9b627f065a527ac177122d055b1d1b8bf9d6f38e69fddff807e5c4f860eaf71"},
		{true, "dfe88e0bed43b62f66ca2dda0c00bcf817482c950a14abc55abaed6abedf24f0"},
	} {
		if got := s.cacheKey(v, c.pre); got != c.want {
			t.Errorf("cacheKey(pre_enhanced=%v) = %s, want %s", c.pre, got, c.want)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.cacheKey(v, false)
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b >= 4096 {
		t.Errorf("cacheKey allocates %d B for a %d B scan", b, 4*len(v.Data))
	}
}
