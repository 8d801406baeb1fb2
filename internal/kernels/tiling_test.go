package kernels

import "testing"

// TestGemmTilingGivesEveryWorkerATile pins the GEMM's tile rule: the
// tiles cover the columns exactly, in whole 16-column blocks with only
// the last one cut short, there are never more tiles than workers, and
// a layer with at least 64 columns per worker gets one tile per worker.
func TestGemmTilingGivesEveryWorkerATile(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 8} {
		for _, cols := range []int{1, 15, 16, 63, 64, 100, 128, 520, 1024, 1147, 4096, 4097, 65536, 262144} {
			nTiles := gemmTiles(cols, workers)
			next := 0
			for i := 0; i < nTiles; i++ {
				q0, q1 := gemmTile(i, nTiles, cols)
				if q0 != next || q1 <= q0 || (q1 < cols && q1%16 != 0) {
					t.Fatalf("cols=%d workers=%d: tile %d of %d is [%d, %d) after %d",
						cols, workers, i, nTiles, q0, q1, next)
				}
				next = q1
			}
			if next != cols {
				t.Fatalf("cols=%d workers=%d: %d tiles cover %d columns", cols, workers, nTiles, next)
			}
			if nTiles > workers || (cols >= 64*workers && nTiles < workers) {
				t.Fatalf("cols=%d: %d tiles for %d workers", cols, nTiles, workers)
			}
		}
	}
}
