package nn_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"computecovid19/internal/ddnet"
	"computecovid19/internal/nn"
)

// FuzzLoadModule feeds arbitrary bytes to LoadModule into a TinyConfig
// DDnet. It must return an error and leave the model as it was, or
// leave a model that saves back to exactly the bytes it read (a prefix
// of the input: bytes after the last tensor are not read), and it must
// never panic. Seeds: a valid
// file, truncations at a tensor boundary and mid-tensor, and one-field
// corruptions of the magic, the version, a rank and a dimension.
func FuzzLoadModule(f *testing.F) {
	m := ddnet.New(rand.New(rand.NewSource(1)), ddnet.TinyConfig())
	var file bytes.Buffer
	if err := nn.SaveModule(&file, m); err != nil {
		f.Fatal(err)
	}
	valid := file.Bytes()
	// The header is magic and two u32s; the first tensor is rank 4 with
	// dims (8, 1, 7, 7).
	const header, first = 12, 4 + 4*4 + 8*1*7*7*4
	corrupt := func(at int, v uint32) []byte {
		b := bytes.Clone(valid)
		binary.LittleEndian.PutUint32(b[at:], v)
		return b
	}
	f.Add(valid)
	f.Add(valid[:header+first])        // truncated at a tensor boundary
	f.Add(valid[:header+first+4+16+6]) // truncated mid-tensor
	f.Add(append([]byte("XC19"), valid[4:]...))
	f.Add(corrupt(4, 2))          // version
	f.Add(corrupt(header, 3))     // rank of the first tensor
	f.Add(corrupt(header+4+4, 9)) // its second dimension

	held := bytes.Clone(valid) // what m holds: the file it was saved to, then each file it loads
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := nn.LoadModule(bytes.NewReader(data), m); err != nil {
			if !holds(m, held) {
				t.Fatalf("a failed load of %d bytes changed the model", len(data))
			}
			return
		}
		var saved bytes.Buffer
		if err := nn.SaveModule(&saved, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, saved.Bytes()) {
			t.Fatalf("LoadModule accepted %d bytes, but the model saves back to %d other bytes", len(data), saved.Len())
		}
		held = bytes.Clone(saved.Bytes())
	})
}

// holds reports whether m's tensors hold the data of the model file
// file, bit for bit, without encoding m: the file's tensors are walked
// in place (rank u32, dims, data, after the 12-byte header).
func holds(m *ddnet.DDnet, file []byte) bool {
	var ts [][]float32
	for _, p := range m.Params() {
		ts = append(ts, p.T.Data)
	}
	for _, st := range m.StateTensors() {
		ts = append(ts, st.Data)
	}
	at := 12
	for _, data := range ts {
		at += 4 + 4*int(binary.LittleEndian.Uint32(file[at:]))
		for _, v := range data {
			if math.Float32bits(v) != binary.LittleEndian.Uint32(file[at:]) {
				return false
			}
			at += 4
		}
	}
	return true
}

// TestLoadModuleFailureLeavesModule loads two bad files into a DDnet
// holding other weights: the first half of a valid file (truncated in
// a tensor's data), and a valid file whose last tensor has a wrong last
// dimension. Each returns an error, and every tensor keeps its bits.
func TestLoadModuleFailureLeavesModule(t *testing.T) {
	var file, before bytes.Buffer
	if err := nn.SaveModule(&file, ddnet.New(rand.New(rand.NewSource(1)), ddnet.TinyConfig())); err != nil {
		t.Fatal(err)
	}
	m := ddnet.New(rand.New(rand.NewSource(2)), ddnet.TinyConfig())
	if err := nn.SaveModule(&before, m); err != nil {
		t.Fatal(err)
	}
	valid := file.Bytes()
	// Walk the tensors to the last one's last dimension: rank u32, dims,
	// then the data, after the 12-byte header.
	last, at := 0, 12
	for at < len(valid) {
		rank := int(binary.LittleEndian.Uint32(valid[at:]))
		n := 1
		for d := 0; d < rank; d++ {
			n *= int(binary.LittleEndian.Uint32(valid[at+4+4*d:]))
		}
		last = at + 4*rank
		at += 4 + 4*rank + 4*n
	}
	wrongDim := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(wrongDim[last:], binary.LittleEndian.Uint32(valid[last:])+1)
	for name, data := range map[string][]byte{"half-length": valid[:len(valid)/2], "wrong last dimension": wrongDim} {
		if err := nn.LoadModule(bytes.NewReader(data), m); err == nil {
			t.Fatalf("%s file loaded without an error", name)
		}
		if !holds(m, before.Bytes()) {
			t.Fatalf("loading the %s file changed the model", name)
		}
	}
}
