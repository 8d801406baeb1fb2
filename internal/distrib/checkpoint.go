package distrib

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"computecovid19/internal/nn"
	"computecovid19/internal/obs"
	"computecovid19/internal/tensor"
)

// Checkpoint/restore for long training runs (the paper's Table 3 DDnet
// recipe is 50 epochs at batch 1 — exactly the horizon where a crash at
// epoch 49 loses the run). A Snapshot captures everything bit-identical
// resume needs: master parameters, batch-norm running statistics, Adam
// moment vectors and step count, the learning rate, the data-loader
// cursor (epoch, step-within-epoch, and the epoch's shuffled order) and
// the RNG stream. The on-disk format is a CRC-checked binary container
// written atomically (tmp file + rename), so a crash mid-write can
// never leave a checkpoint that restores silently wrong.
//
// File layout (little endian):
//
//	magic "CC19CKPT" | version u32 | payloadLen u64 | payload | crc32(payload) u32
//
// payload:
//
//	step u64 | epoch u64 | cursor u64 | nodes u32 | adamT u64 | lr f64 |
//	rng 4×u64 | orderLen u32, order []u32 |
//	4 tensor groups (params, state, adamM, adamV):
//	  count u32, per tensor: rank u32, dims []u32, data []f32

const (
	ckptMagic   = "CC19CKPT"
	ckptVersion = 1

	// DefaultKeep is the retention depth when CheckpointManager.Keep is 0.
	DefaultKeep = 3

	// maxCkptPayload guards the decoder against absurd length prefixes in
	// a corrupt or hostile file (8 GiB is far beyond any model here).
	maxCkptPayload = 8 << 30
)

var (
	ckptWrites = obs.GetCounter("distrib_checkpoint_writes_total")
	ckptBytes  = obs.GetCounter("distrib_checkpoint_bytes_total")
)

// Snapshot is one consistent training state.
type Snapshot struct {
	// Step is the global optimizer step count at capture time.
	Step uint64
	// Epoch and Cursor are the data-loader position: Cursor steps of
	// Epoch have been consumed.
	Epoch, Cursor uint64
	// Nodes records the group size at capture (informational; a snapshot
	// restores into any group size, since replicas are identical).
	Nodes int
	// LR is the current learning rate.
	LR float64
	// AdamT is Adam's bias-correction step counter.
	AdamT int
	// RNG is the data/augmentation stream state (see RNG).
	RNG [4]uint64
	// Order is the current epoch's sample permutation (nil before the
	// first epoch starts).
	Order []uint32
	// Params, State, AdamM, AdamV hold deep copies of the master
	// replica's parameters, batch-norm running statistics, and the
	// optimizer's first/second moments.
	Params, State, AdamM, AdamV []*tensor.Tensor
}

func cloneTensors(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

func stateTensorsOf(m Model) []*tensor.Tensor {
	if sp, ok := m.(nn.StateProvider); ok {
		return sp.StateTensors()
	}
	return nil
}

// Snapshot captures the trainer's current state (master replica +
// optimizer). The caller fills in the data-loader fields (Epoch,
// Cursor, Order, RNG) it owns; RunElastic does this automatically.
func (t *Trainer) Snapshot() *Snapshot {
	master := t.replicas[0]
	var params []*tensor.Tensor
	for _, p := range master.Params() {
		params = append(params, p.T.Clone())
	}
	m, v := t.opts[0].Moments()
	return &Snapshot{
		Step:   t.step,
		Nodes:  t.Nodes,
		LR:     t.opts[0].LR(),
		AdamT:  t.opts[0].StepCount(),
		Params: params,
		State:  cloneTensors(stateTensorsOf(master)),
		AdamM:  cloneTensors(m),
		AdamV:  cloneTensors(v),
	}
}

// Restore loads a snapshot into every replica and optimizer, returning
// an error when shapes disagree with the trainer's architecture. After
// Restore all replicas are bit-identical to the snapshot's master, so
// training continues exactly as if never interrupted. (Non-master
// batch-norm running statistics are overwritten with the master's; they
// influence nothing — training-mode forward uses batch statistics and
// only the master is ever evaluated.)
func (t *Trainer) Restore(s *Snapshot) error {
	copyInto := func(dst, src []*tensor.Tensor, what string) error {
		if len(dst) != len(src) {
			return fmt.Errorf("distrib: snapshot has %d %s tensors, trainer expects %d", len(src), what, len(dst))
		}
		for i := range dst {
			if dst[i].Numel() != src[i].Numel() {
				return fmt.Errorf("distrib: %s tensor %d has %d elements, trainer expects %d",
					what, i, src[i].Numel(), dst[i].Numel())
			}
		}
		for i := range dst {
			copy(dst[i].Data, src[i].Data)
		}
		return nil
	}
	for node, m := range t.replicas {
		// Back to training first: a replica evaluated since the trainer
		// made it (an eval forward compiles a plan folded from its
		// weights, see nn.Trunk) must drop that plan before the
		// snapshot's weights replace the ones it was folded from.
		m.SetTraining(true)
		var params []*tensor.Tensor
		for _, p := range m.Params() {
			params = append(params, p.T)
		}
		if err := copyInto(params, s.Params, "param"); err != nil {
			return err
		}
		if err := copyInto(stateTensorsOf(m), s.State, "state"); err != nil {
			return err
		}
		mm, vv := t.opts[node].Moments()
		if err := copyInto(mm, s.AdamM, "adam-m"); err != nil {
			return err
		}
		if err := copyInto(vv, s.AdamV, "adam-v"); err != nil {
			return err
		}
		t.opts[node].SetStepCount(s.AdamT)
		t.opts[node].SetLR(s.LR)
	}
	t.step = s.Step
	return nil
}

// WriteSnapshot encodes s to w in the checkpoint container format.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	var payload bytes.Buffer
	le := binary.LittleEndian
	var scratch [8]byte
	pu32 := func(v uint32) { le.PutUint32(scratch[:4], v); payload.Write(scratch[:4]) }
	pu64 := func(v uint64) { le.PutUint64(scratch[:8], v); payload.Write(scratch[:8]) }

	pu64(s.Step)
	pu64(s.Epoch)
	pu64(s.Cursor)
	pu32(uint32(s.Nodes))
	pu64(uint64(s.AdamT))
	pu64(math.Float64bits(s.LR))
	for _, word := range s.RNG {
		pu64(word)
	}
	pu32(uint32(len(s.Order)))
	for _, o := range s.Order {
		pu32(o)
	}
	for _, group := range [][]*tensor.Tensor{s.Params, s.State, s.AdamM, s.AdamV} {
		pu32(uint32(len(group)))
		for _, t := range group {
			pu32(uint32(t.Rank()))
			for _, d := range t.Shape {
				pu32(uint32(d))
			}
			for _, f := range t.Data {
				pu32(math.Float32bits(f))
			}
		}
	}

	if _, err := io.WriteString(w, ckptMagic); err != nil {
		return err
	}
	hdr := make([]byte, 12)
	le.PutUint32(hdr[:4], ckptVersion)
	le.PutUint64(hdr[4:], uint64(payload.Len()))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return err
	}
	le.PutUint32(scratch[:4], crc32.ChecksumIEEE(payload.Bytes()))
	_, err := w.Write(scratch[:4])
	return err
}

// ReadSnapshot decodes a checkpoint, verifying magic, version, and the
// payload CRC before interpreting a single field.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	magic := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("distrib: reading checkpoint magic: %w", err)
	}
	if string(magic) != ckptMagic {
		return nil, fmt.Errorf("distrib: bad checkpoint magic %q", magic)
	}
	hdr := make([]byte, 12)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("distrib: reading checkpoint header: %w", err)
	}
	le := binary.LittleEndian
	if v := le.Uint32(hdr[:4]); v != ckptVersion {
		return nil, fmt.Errorf("distrib: unsupported checkpoint version %d", v)
	}
	plen := le.Uint64(hdr[4:])
	if plen > maxCkptPayload {
		return nil, fmt.Errorf("distrib: checkpoint payload length %d exceeds limit", plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("distrib: reading checkpoint payload: %w", err)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("distrib: reading checkpoint crc: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(payload), le.Uint32(crcBuf[:]); got != want {
		return nil, fmt.Errorf("distrib: checkpoint crc mismatch (got %08x, want %08x) — file is corrupt or truncated", got, want)
	}

	rd := bytes.NewReader(payload)
	var ferr error
	gu32 := func() uint32 {
		var b [4]byte
		if _, err := io.ReadFull(rd, b[:]); err != nil && ferr == nil {
			ferr = err
		}
		return le.Uint32(b[:])
	}
	gu64 := func() uint64 {
		var b [8]byte
		if _, err := io.ReadFull(rd, b[:]); err != nil && ferr == nil {
			ferr = err
		}
		return le.Uint64(b[:])
	}

	// A CRC-valid payload can still claim any count, and every count
	// sizes an allocation, so each is held to the bytes left to back it
	// before anything is allocated: n items of size bytes must fit.
	fits := func(n, size uint64) bool { return n <= uint64(rd.Len())/size }

	s := &Snapshot{}
	s.Step = gu64()
	s.Epoch = gu64()
	s.Cursor = gu64()
	s.Nodes = int(gu32())
	s.AdamT = int(gu64())
	s.LR = math.Float64frombits(gu64())
	for i := range s.RNG {
		s.RNG[i] = gu64()
	}
	if n := gu32(); n > 0 && ferr == nil {
		if !fits(uint64(n), 4) {
			return nil, fmt.Errorf("distrib: checkpoint order claims %d entries, more than the payload holds", n)
		}
		s.Order = make([]uint32, n)
		for i := range s.Order {
			s.Order[i] = gu32()
		}
	}
	groups := make([][]*tensor.Tensor, 4)
	for g := range groups {
		count := gu32()
		if ferr != nil {
			break
		}
		if !fits(uint64(count), 4) { // each tensor has at least its rank
			return nil, fmt.Errorf("distrib: checkpoint group %d claims %d tensors, more than the payload holds", g, count)
		}
		ts := make([]*tensor.Tensor, 0, count)
		for i := 0; i < int(count) && ferr == nil; i++ {
			rank := uint64(gu32())
			if ferr == nil && !fits(rank, 4) {
				return nil, fmt.Errorf("distrib: checkpoint tensor %d/%d claims rank %d, more than the payload holds", g, i, rank)
			}
			// Every dimension, and their product, is at most the floats
			// left: checked before each multiply, so it cannot wrap.
			tooLarge := func() error {
				return fmt.Errorf("distrib: checkpoint tensor %d/%d claims a shape larger than the payload holds", g, i)
			}
			limit := uint64(rd.Len()) / 4
			shape := make([]int, rank)
			numel := uint64(1)
			for d := range shape {
				dim := uint64(gu32())
				if dim > limit || dim > 0 && numel > limit/dim {
					return nil, tooLarge()
				}
				numel *= dim
				shape[d] = int(dim)
			}
			if ferr != nil {
				return nil, fmt.Errorf("distrib: checkpoint tensor %d/%d has implausible shape", g, i)
			}
			if !fits(numel, 4) {
				return nil, tooLarge()
			}
			t := tensor.New(shape...)
			for j := range t.Data {
				t.Data[j] = math.Float32frombits(gu32())
			}
			ts = append(ts, t)
		}
		groups[g] = ts
	}
	if ferr != nil {
		return nil, fmt.Errorf("distrib: truncated checkpoint payload: %w", ferr)
	}
	s.Params, s.State, s.AdamM, s.AdamV = groups[0], groups[1], groups[2], groups[3]
	return s, nil
}

// CheckpointManager writes and retains snapshots in a directory.
// Filenames embed the zero-padded step so lexical order is step order.
type CheckpointManager struct {
	Dir string
	// Prefix defaults to "ckpt".
	Prefix string
	// Keep is how many most-recent checkpoints to retain; 0 means
	// DefaultKeep, negative keeps everything.
	Keep int
}

func (cm *CheckpointManager) prefix() string {
	if cm.Prefix == "" {
		return "ckpt"
	}
	return cm.Prefix
}

func (cm *CheckpointManager) pathFor(step uint64) string {
	return filepath.Join(cm.Dir, fmt.Sprintf("%s-%012d.ckpt", cm.prefix(), step))
}

// Save writes s atomically (tmp file, fsync, rename) and prunes old
// checkpoints beyond Keep. It returns the final path.
func (cm *CheckpointManager) Save(s *Snapshot) (string, error) {
	if err := os.MkdirAll(cm.Dir, 0o755); err != nil {
		return "", err
	}
	path := cm.pathFor(s.Step)
	tmp, err := os.CreateTemp(cm.Dir, cm.prefix()+"-*.tmp")
	if err != nil {
		return "", err
	}
	tmpName := tmp.Name()
	fail := func(err error) (string, error) {
		tmp.Close()
		os.Remove(tmpName)
		return "", err
	}
	if err := WriteSnapshot(tmp, s); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	info, _ := tmp.Stat()
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return "", err
	}
	ckptWrites.Inc()
	if info != nil {
		ckptBytes.Add(uint64(info.Size()))
	}
	cm.prune()
	return path, nil
}

// List returns the retained checkpoint paths, oldest first.
func (cm *CheckpointManager) List() ([]string, error) {
	entries, err := os.ReadDir(cm.Dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && filepath.Ext(name) == ".ckpt" &&
			len(name) > len(cm.prefix()) && name[:len(cm.prefix())+1] == cm.prefix()+"-" {
			paths = append(paths, filepath.Join(cm.Dir, name))
		}
	}
	sort.Strings(paths)
	return paths, nil
}

// Latest returns the newest checkpoint path, or "" when none exists.
func (cm *CheckpointManager) Latest() (string, error) {
	paths, err := cm.List()
	if err != nil || len(paths) == 0 {
		return "", err
	}
	return paths[len(paths)-1], nil
}

func (cm *CheckpointManager) prune() {
	keep := cm.Keep
	if keep < 0 {
		return
	}
	if keep == 0 {
		keep = DefaultKeep
	}
	paths, err := cm.List()
	if err != nil {
		return
	}
	for len(paths) > keep {
		os.Remove(paths[0])
		paths = paths[1:]
	}
}

// LoadSnapshot reads and validates the checkpoint at path.
func LoadSnapshot(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}
