package distrib

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"computecovid19/internal/ag"
	"computecovid19/internal/ddnet"
	"computecovid19/internal/tensor"
)

func demoSnapshot() *Snapshot {
	rng := rand.New(rand.NewSource(9))
	mk := func(shape ...int) *tensor.Tensor { return tensor.New(shape...).RandN(rng, 0, 1) }
	return &Snapshot{
		Step:   17,
		Epoch:  2,
		Cursor: 3,
		Nodes:  4,
		LR:     0.0125,
		AdamT:  17,
		RNG:    [4]uint64{1, 2, 3, 4},
		Order:  []uint32{3, 1, 0, 2},
		Params: []*tensor.Tensor{mk(2, 3), mk(5)},
		State:  []*tensor.Tensor{mk(3)},
		AdamM:  []*tensor.Tensor{mk(2, 3), mk(5)},
		AdamV:  []*tensor.Tensor{mk(2, 3), mk(5)},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := demoSnapshot()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != s.Step || got.Epoch != s.Epoch || got.Cursor != s.Cursor ||
		got.Nodes != s.Nodes || got.LR != s.LR || got.AdamT != s.AdamT || got.RNG != s.RNG {
		t.Fatalf("scalar fields differ: %+v vs %+v", got, s)
	}
	if len(got.Order) != len(s.Order) {
		t.Fatalf("order length %d, want %d", len(got.Order), len(s.Order))
	}
	for i := range s.Order {
		if got.Order[i] != s.Order[i] {
			t.Fatalf("order[%d] = %d, want %d", i, got.Order[i], s.Order[i])
		}
	}
	groups := [][2][]*tensor.Tensor{
		{got.Params, s.Params}, {got.State, s.State}, {got.AdamM, s.AdamM}, {got.AdamV, s.AdamV},
	}
	for gi, g := range groups {
		if len(g[0]) != len(g[1]) {
			t.Fatalf("group %d has %d tensors, want %d", gi, len(g[0]), len(g[1]))
		}
		for ti := range g[1] {
			if !g[0][ti].SameShape(g[1][ti]) {
				t.Fatalf("group %d tensor %d shape differs", gi, ti)
			}
			for j := range g[1][ti].Data {
				if g[0][ti].Data[j] != g[1][ti].Data[j] {
					t.Fatalf("group %d tensor %d elem %d differs", gi, ti, j)
				}
			}
		}
	}
}

func TestCheckpointCRCDetectsCorruption(t *testing.T) {
	cm := &CheckpointManager{Dir: t.TempDir()}
	path, err := cm.Save(demoSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit (past the 20-byte magic+header).
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(path); err == nil || !strings.Contains(err.Error(), "crc") {
		t.Fatalf("corrupted checkpoint must fail the crc check, got %v", err)
	}
}

func TestCheckpointTruncatedFails(t *testing.T) {
	cm := &CheckpointManager{Dir: t.TempDir()}
	path, err := cm.Save(demoSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(path); err == nil {
		t.Fatal("truncated checkpoint must not load")
	}
}

func TestCheckpointRetentionAndAtomicity(t *testing.T) {
	dir := t.TempDir()
	cm := &CheckpointManager{Dir: dir, Keep: 2}
	for step := uint64(1); step <= 5; step++ {
		s := demoSnapshot()
		s.Step = step
		if _, err := cm.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := cm.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("retention kept %d checkpoints, want 2: %v", len(paths), paths)
	}
	latest, err := cm.Latest()
	if err != nil {
		t.Fatal(err)
	}
	s, err := LoadSnapshot(latest)
	if err != nil {
		t.Fatal(err)
	}
	if s.Step != 5 {
		t.Fatalf("latest checkpoint is step %d, want 5", s.Step)
	}
	// Atomic write-rename must leave no temp files behind.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("stale temp file %s left behind", e.Name())
		}
	}
}

func TestCheckpointLatestEmptyDir(t *testing.T) {
	cm := &CheckpointManager{Dir: filepath.Join(t.TempDir(), "missing")}
	latest, err := cm.Latest()
	if err != nil || latest != "" {
		t.Fatalf("empty manager: latest=%q err=%v, want empty and nil", latest, err)
	}
}

func TestTrainerRestoreValidatesShapes(t *testing.T) {
	tr := NewTrainer(newToyFactory(), 2, 0.01, toyLoss)
	s := tr.Snapshot()
	s.Params = s.Params[:1] // drop a tensor
	if err := tr.Restore(s); err == nil {
		t.Fatal("restore with missing parameter tensor must fail")
	}
}

// TestRestoreDropsCompiledPlan evaluates the master replica of a DDnet
// trainer — its eval forward compiles a plan folded from the current
// weights — then restores a snapshot with other weights: the next eval
// forward must follow the restored weights (within the plan's 1e-3
// budget of their graph forward), not the stale plan.
func TestRestoreDropsCompiledPlan(t *testing.T) {
	factory := func() Model { return ddnet.New(rand.New(rand.NewSource(3)), ddnet.TinyConfig()) }
	tr := NewTrainer(factory, 2, 0.01, nil)
	s := tr.Snapshot()
	for _, st := range s.State {
		for i := range st.Data {
			st.Data[i] += 0.3
		}
	}
	img := tensor.New(32, 32)
	for i := range img.Data {
		img.Data[i] = float32(i%37) / 36
	}
	master := tr.Master().(*ddnet.DDnet)
	master.Enhance(img)
	if err := tr.Restore(s); err != nil {
		t.Fatal(err)
	}
	got := master.Enhance(img)
	want := master.Forward(ag.Const(img.Reshape(1, 1, 32, 32))).T.Clamp(0, 1)
	for i := range want.Data {
		if d := math.Abs(float64(got.Data[i] - want.Data[i])); d > 1e-3 {
			t.Fatalf("element %d: eval forward after Restore %v, graph forward of the restored weights %v", i, got.Data[i], want.Data[i])
		}
	}
}
