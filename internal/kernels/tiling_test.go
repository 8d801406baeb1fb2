package kernels

import "testing"

// TestGemmTilingGivesEveryWorkerATile pins the GEMM rungs' tile rule:
// the tiles cover the columns exactly, in whole 16-column blocks with
// only the last one cut short, none is wider than the scratch stride,
// the OutC × stride scratch stays within its cap (or the tile at the
// 64-column floor), and a layer with at least 64 columns per worker
// gets at least one tile per worker.
func TestGemmTilingGivesEveryWorkerATile(t *testing.T) {
	for _, outC := range []int{1, 6, 8, 32, 64, 2048} {
		for _, workers := range []int{1, 2, 3, 4, 8} {
			for _, cols := range []int{1, 15, 16, 63, 64, 100, 128, 520, 1024, 1147, 4096, 4097, 65536, 262144} {
				nTiles, tileCols := gemmTiling(outC, cols, workers)
				if tileCols%16 != 0 || (tileCols > 64 && outC*tileCols > gemmScratchFloats) {
					t.Fatalf("outC=%d cols=%d workers=%d: stride %d is not whole blocks within the scratch cap",
						outC, cols, workers, tileCols)
				}
				next := 0
				for i := 0; i < nTiles; i++ {
					q0, q1 := gemmTile(i, nTiles, cols)
					if q0 != next || q1 <= q0 || q1-q0 > tileCols || (q1 < cols && q1%16 != 0) {
						t.Fatalf("outC=%d cols=%d workers=%d: tile %d of %d is [%d, %d) after %d (stride %d)",
							outC, cols, workers, i, nTiles, q0, q1, next, tileCols)
					}
					next = q1
				}
				if next != cols {
					t.Fatalf("outC=%d cols=%d workers=%d: %d tiles cover %d columns", outC, cols, workers, nTiles, next)
				}
				if cols >= 64*workers && nTiles < workers {
					t.Fatalf("outC=%d cols=%d: %d tiles for %d workers", outC, cols, nTiles, workers)
				}
			}
		}
	}
}
