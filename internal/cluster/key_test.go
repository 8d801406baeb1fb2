package cluster

import (
	"math"
	"testing"

	"computecovid19/internal/serve"
)

// TestContentKeyPinned pins the gateway's affinity key of a fixed
// 4×32×33 scan (a negative zero among its voxels) to the hex value
// computed when it hashed a whole-scan copy of the voxels. The key
// ignores pre_enhanced, so both requests share it.
func TestContentKeyPinned(t *testing.T) {
	data := make([]float32, 4*32*33)
	for i := range data {
		data[i] = float32(i%977)*0.731 - 300
	}
	data[5] = float32(math.Copysign(0, -1))
	const want = "c9936dd6e223efdaa69f2d99e425a44ca985e8ce4e16ca3774bf52e4474776ad"
	for _, pre := range []bool{false, true} {
		req := &serve.ScanRequest{D: 4, H: 32, W: 33, Data: data, PreEnhanced: pre}
		if got := contentKey(req); got != want {
			t.Errorf("contentKey(pre_enhanced=%v) = %s, want %s", pre, got, want)
		}
	}
}
