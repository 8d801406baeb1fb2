package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"computecovid19/internal/tensor"
)

// The model file format is a minimal stdlib-only binary container:
//
//	magic "CC19" | version u32 | tensorCount u32 |
//	per tensor: rank u32, dims []u32, data []float32 (little endian)
//
// Parameters are stored in Module.Params order followed by batch-norm
// running statistics, so save/load round-trips exactly for a module
// built with the same architecture.

const (
	modelMagic   = "CC19"
	modelVersion = 1
)

// StateProvider lets modules defined outside this package expose extra
// non-parameter tensors (batch-norm running statistics) for
// serialization.
type StateProvider interface {
	StateTensors() []*tensor.Tensor
}

// allTensors returns parameters plus batch-norm state for m, in a stable
// order.
func allTensors(m Module) []*tensor.Tensor {
	var ts []*tensor.Tensor
	for _, p := range m.Params() {
		ts = append(ts, p.T)
	}
	switch st := m.(type) {
	case stateful:
		ts = append(ts, st.stateTensors()...)
	case StateProvider:
		ts = append(ts, st.StateTensors()...)
	}
	return ts
}

// SaveModule writes all parameters and state of m to w.
func SaveModule(w io.Writer, m Module) error {
	return saveTensors(w, allTensors(m))
}

// LoadModule reads parameters and state into m, which must have been
// constructed with the same architecture used at save time. The whole
// file is read and checked before any tensor is written, so on error m
// is unchanged. It drops the compiled plan of a module that embeds a
// Trunk, so the next eval forward folds the weights just read.
func LoadModule(r io.Reader, m Module) error {
	if t, ok := m.(interface{ dropPlan() }); ok {
		defer t.dropPlan()
	}
	return loadTensors(r, allTensors(m))
}

// SaveModuleFile saves m to path.
func SaveModuleFile(path string, m Module) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := SaveModule(bw, m); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadModuleFile loads parameters from path into m.
func LoadModuleFile(path string, m Module) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return LoadModule(bufio.NewReader(f), m)
}

func saveTensors(w io.Writer, ts []*tensor.Tensor) error {
	if _, err := io.WriteString(w, modelMagic); err != nil {
		return err
	}
	hdr := []uint32{modelVersion, uint32(len(ts))}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return err
	}
	for _, t := range ts {
		if err := binary.Write(w, binary.LittleEndian, uint32(t.Rank())); err != nil {
			return err
		}
		for _, d := range t.Shape {
			if err := binary.Write(w, binary.LittleEndian, uint32(d)); err != nil {
				return err
			}
		}
		if err := binary.Write(w, binary.LittleEndian, t.Data); err != nil {
			return err
		}
	}
	return nil
}

func loadTensors(r io.Reader, ts []*tensor.Tensor) error {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("nn: reading model magic: %w", err)
	}
	if string(magic) != modelMagic {
		return fmt.Errorf("nn: bad model magic %q", magic)
	}
	var hdr [2]uint32
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return err
	}
	if hdr[0] != modelVersion {
		return fmt.Errorf("nn: unsupported model version %d", hdr[0])
	}
	if int(hdr[1]) != len(ts) {
		return fmt.Errorf("nn: model has %d tensors, module expects %d", hdr[1], len(ts))
	}
	data := make([][]float32, len(ts))
	for i, t := range ts {
		var rank uint32
		if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
			return err
		}
		if int(rank) != t.Rank() {
			return fmt.Errorf("nn: tensor %d rank %d, module expects %d", i, rank, t.Rank())
		}
		for d := 0; d < int(rank); d++ {
			var dim uint32
			if err := binary.Read(r, binary.LittleEndian, &dim); err != nil {
				return err
			}
			if int(dim) != t.Shape[d] {
				return fmt.Errorf("nn: tensor %d dim %d is %d, module expects %d",
					i, d, dim, t.Shape[d])
			}
		}
		data[i] = make([]float32, len(t.Data))
		if err := binary.Read(r, binary.LittleEndian, data[i]); err != nil {
			return err
		}
	}
	for i, t := range ts {
		copy(t.Data, data[i])
	}
	return nil
}
