package tensor

import (
	"os"
	"sync/atomic"
)

// PoisonBits is the float32 bit pattern pooled allocators fill released
// buffers with when memory debugging is on: a quiet NaN with a
// recognizable payload, so any use-after-release read propagates NaNs
// and any write is detected on the next pooled Get.
const PoisonBits uint32 = 0x7fc0dead

// memDebug gates release-poisoning and use-after-release checks in
// pooled allocators. Initialized from CC_MEMDEBUG=1 (CI race and chaos
// jobs set it); toggleable at runtime for tests.
var memDebug atomic.Bool

func init() {
	if os.Getenv("CC_MEMDEBUG") == "1" {
		memDebug.Store(true)
	}
}

// MemDebug reports whether pooled-memory debugging is enabled.
func MemDebug() bool { return memDebug.Load() }

// SetMemDebug enables or disables pooled-memory debugging and returns
// the previous setting (for test save/restore).
func SetMemDebug(on bool) bool { return memDebug.Swap(on) }
