package distrib

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
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

// framed wraps payload in the checkpoint container: magic, version,
// length and the payload's CRC, so a reader gets past the framing to the
// field decoder.
func framed(payload []byte) []byte {
	le := binary.LittleEndian
	out := append([]byte(ckptMagic), make([]byte, 12)...)
	le.PutUint32(out[8:], ckptVersion)
	le.PutUint64(out[12:], uint64(len(payload)))
	out = append(out, payload...)
	return le.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// payloadOf returns the payload of an encoded checkpoint.
func payloadOf(t testing.TB, s *Snapshot) []byte {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	return b[len(ckptMagic)+12 : len(b)-4]
}

// scalarBytes is the payload's fixed prefix: step, epoch, cursor,
// nodes, Adam's step, the learning rate and the RNG state.
const scalarBytes = 8 + 8 + 8 + 4 + 8 + 8 + 4*8

// TestReadSnapshotRefusesImpossibleCounts: a CRC-valid payload whose
// order length, tensor count, rank, dimensions, their product or the
// element count claim more than its bytes can hold is refused as such,
// before anything is sized by the claim. Each claim is small or wraps
// to small, so a decoder without the bound would allocate little and
// fail as truncated or decode a wrong shape, never allocate the claim;
// each case fails if its bound is taken out.
func TestReadSnapshotRefusesImpossibleCounts(t *testing.T) {
	le := binary.LittleEndian
	u32s := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = le.AppendUint32(b, v)
		}
		return b
	}
	prefix := make([]byte, scalarBytes)
	with := func(tail ...[]byte) []byte {
		return append(prefix[:scalarBytes:scalarBytes], bytes.Join(tail, nil)...)
	}
	const shape = "shape larger than the payload holds"
	for _, c := range []struct {
		name, want string
		payload    []byte
	}{
		// order length, [order], count, then rank, dims and data per tensor
		{"order", "order claims", with(u32s(3), u32s(1, 2))},
		{"tensors", "claims 3 tensors", with(u32s(0, 3), u32s(0, 0))},
		{"rank", "claims rank 4", with(u32s(0, 1, 4), u32s(1, 1, 1))},
		{"dimension", shape, with(u32s(0, 1, 2, 7, 8))},
		// After a zero dimension only the per-dimension bound stops a
		// huge one, which a 32-bit int would read as negative.
		{"dimension after zero", shape, with(u32s(0, 1, 2, 0, 1<<32-1), u32s(0, 0, 0))},
		{"elements", shape, with(u32s(0, 1, 2, 3, 3), u32s(1, 2, 3, 4, 5, 6, 7, 8))},
		// Four dimensions of 2^16, each within the 2^16+ floats left,
		// whose product wraps a 64-bit count to 0.
		{"wrapping product", shape, with(u32s(0, 1, 4, 1<<16, 1<<16, 1<<16, 1<<16), make([]byte, 4<<16))},
	} {
		_, err := ReadSnapshot(bytes.NewReader(framed(c.payload)))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: ReadSnapshot error %v, want one saying %q", c.name, err, c.want)
		}
	}
}

// FuzzReadSnapshot feeds the field decoder arbitrary CRC-valid payloads:
// it must refuse or decode without panicking, and what it decodes must
// re-encode to the bytes it read.
func FuzzReadSnapshot(f *testing.F) {
	f.Add(payloadOf(f, demoSnapshot()))
	f.Add(payloadOf(f, &Snapshot{}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		s, err := ReadSnapshot(bytes.NewReader(framed(payload)))
		if err != nil {
			return
		}
		if again := payloadOf(t, s); !bytes.HasPrefix(payload, again) {
			t.Fatalf("decoded snapshot re-encodes to %x, not a prefix of the payload %x", again, payload)
		}
	})
}
