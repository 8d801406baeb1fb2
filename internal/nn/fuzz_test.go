package nn_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"computecovid19/internal/ddnet"
	"computecovid19/internal/nn"
)

// FuzzLoadModule feeds arbitrary bytes to LoadModule into a TinyConfig
// DDnet. It must return an error or leave a model that saves back to
// exactly the bytes it read (a prefix of the input: bytes after the
// last tensor are not read), and it must never panic. Seeds: a valid
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

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := nn.LoadModule(bytes.NewReader(data), m); err != nil {
			return
		}
		var saved bytes.Buffer
		if err := nn.SaveModule(&saved, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, saved.Bytes()) {
			t.Fatalf("LoadModule accepted %d bytes, but the model saves back to %d other bytes", len(data), saved.Len())
		}
	})
}
