package kernels

import "testing"

// TestGemmTilingGivesEveryWorkerATile pins the GEMM rungs' tile rule:
// the tiles cover the columns exactly, stay within the panel cap (or at
// the 64-column floor), and a layer with at least 64 columns per worker
// gets at least one tile per worker — while Table 2's 512² layers keep
// the panel-capped tiles they had before the per-worker cap.
func TestGemmTilingGivesEveryWorkerATile(t *testing.T) {
	for _, r := range []int{1, 16, 49, 64, 72, 400, 1600, 2400, 5000} {
		for _, workers := range []int{1, 2, 3, 4, 8} {
			for _, cols := range []int{1, 63, 64, 100, 128, 1024, 1147, 4096, 4097, 65536, 262144} {
				tile, nTiles := gemmTiling(r, cols, workers)
				if tile < 64 || (tile > 64 && r*tile > gemmPanelFloats) {
					t.Fatalf("r=%d cols=%d workers=%d: tile %d outside [64, panel cap]", r, cols, workers, tile)
				}
				if (nTiles-1)*tile >= cols || nTiles*tile < cols {
					t.Fatalf("r=%d cols=%d workers=%d: %d tiles of %d do not cover the columns exactly",
						r, cols, workers, nTiles, tile)
				}
				if cols >= 64*workers && nTiles < workers {
					t.Fatalf("r=%d cols=%d: %d tiles for %d workers", r, cols, nTiles, workers)
				}
			}
		}
	}
	for _, bs := range Table2Shapes(512) {
		r, cols := bs.Shape.InC*bs.Shape.K*bs.Shape.K, bs.Shape.H*bs.Shape.W
		for _, workers := range []int{1, 2, 4} {
			if tile, _ := gemmTiling(r, cols, workers); tile != gemmPanelFloats/r {
				t.Errorf("%s on %d workers: tile %d, want the panel-capped %d", bs.Name, workers, tile, gemmPanelFloats/r)
			}
		}
	}
}
