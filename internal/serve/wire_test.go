package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"computecovid19/internal/dataset"
	"computecovid19/internal/memplan"
)

// readScanCorpus seeds FuzzReadScan: canonical bodies, every way a body
// leaves the canonical grammar (and so takes json.Unmarshal's path), and
// the bodies the bound and dimension tests send.
var readScanCorpus = []string{
	`{"d":1,"h":2,"w":2,"data":[1,2.5,-3,4e2]}`,
	`{"d":1,"h":1,"w":2,"data":[-0,0],"deadline_ms":250,"pre_enhanced":true}`,
	` { "data" : [ 1 , 2 ] , "w" : 2 , "h" : 1 , "d" : 1 } ` + "\n",
	`{"d":1,"h":1,"w":1,"data":[1]}` + "\n",
	`{}`,
	`{"d":1,"h":1,"w":1,"data":[]}`,
	`{"d":1,"h":1,"w":3,"data":[1e-45,1.4e-45,1.17549435e-38]}`, // subnormals
	`{"d":1,"h":1,"w":3,"data":[1E+2,-2.5e-3,3.4028235e38]}`,
	`{"d":1,"h":1,"w":1,"data":[1e39]}`,      // float32 overflow: refused
	`{"d":1,"h":1,"w":1,"data":[1e-400]}`,    // underflow to zero: accepted
	`{"d":1,"h":1,"w":1,"data":[1]}garbage`,  // trailing data
	`{"d":1,"h":1,"w":1,"data":[1]}{"d":1}`,  // two objects
	`{"D":1,"h":1,"w":1,"data":[1]}`,         // case-variant key
	`{"\u0064":1,"h":1,"w":1,"data":[1]}`,    // escaped key
	`{"d":1,"d":2,"h":1,"w":1,"data":[1]}`,   // repeated key
	`{"d":1,"h":1,"w":1,"data":null}`,        // null data
	`{"d":null,"h":1,"w":1,"data":[1]}`,      // null dimension
	`{"d":1,"h":1,"w":1,"data":[null]}`,      // null voxel
	`{"d":1,"h":1,"w":1,"data":["1"]}`,       // string voxel
	`{"d":1.0,"h":1,"w":1,"data":[1]}`,       // fractional dimension
	`{"d":1e0,"h":1,"w":1,"data":[1]}`,       // exponent dimension
	`{"d":01,"h":1,"w":1,"data":[1]}`,        // leading zero
	`{"d":1,"h":1,"w":1,"data":[.5]}`,        // bad number
	`{"d":1,"h":1,"w":1,"data":[1.]}`,        // bad number
	`{"d":1,"h":1,"w":1,"data":[+1]}`,        // bad number
	`{"d":1,"h":1,"w":1,"data":[1,]}`,        // trailing comma
	`{"d":1,"h":1,"w":1,"data":[NaN]}`,       // not JSON
	`{"d":1,"h":1,"w":1,"data":[0x10]}`,      // not JSON
	`{"d":1,"h":1,"w":1,"pre_enhanced":1}`,   // non-bool flag
	`{"d":99999999999999999999,"data":[]}`,   // int overflow
	`{"extra":{"a":[1,2]},"d":1,"data":[1]}`, // unknown key
	`[1,2,3]`,
	`null`,
	``,
	`{"d":1,"h":1,"w":1,"data":[1`,
}

// checkSameDecode fails unless ReadScan agrees with json.Unmarshal on b:
// both accept or both refuse, with every field equal bit for bit.
func checkSameDecode(t *testing.T, b []byte) {
	t.Helper()
	var want ScanRequest
	wantErr := json.Unmarshal(b, &want)
	got := ScanRequest{D: 7, Data: []float32{9}} // overwritten, never merged
	body, err := ReadScan(bytes.NewReader(b), &got)
	body.Release()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("ReadScan(%q) error %v, json.Unmarshal error %v", b, err, wantErr)
	}
	if err != nil {
		return
	}
	if !sameScan(got, want) {
		t.Fatalf("ReadScan(%q) = %+v, json.Unmarshal = %+v", b, got, want)
	}
}

// sameScan compares two decoded requests field by field, voxels by bits.
func sameScan(a, b ScanRequest) bool {
	if a.D != b.D || a.H != b.H || a.W != b.W || a.DeadlineMS != b.DeadlineMS ||
		a.PreEnhanced != b.PreEnhanced || (a.Data == nil) != (b.Data == nil) || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// FuzzReadScan is differential: ReadScan must accept exactly what
// json.Unmarshal accepts and decode every field to the same bits.
func FuzzReadScan(f *testing.F) {
	for _, s := range readScanCorpus {
		f.Add([]byte(s))
	}
	for _, s := range wrappingDims {
		f.Add([]byte(s))
	}
	prefix := make([]byte, 96)
	(&endlessScan{}).Read(prefix)
	f.Add(prefix)
	f.Fuzz(func(t *testing.T, b []byte) { checkSameDecode(t, b) })
}

// FuzzAppendScan: for finite voxels AppendScan writes json.Marshal's
// bytes and ReadScan reads back the same bits; a NaN or infinity is
// refused by both encoders.
func FuzzAppendScan(f *testing.F) {
	for _, c := range []struct {
		a, b, c  uint32
		deadline int
		pre      bool
	}{
		{0x80000000, 0x00000001, 0x7f7fffff, 0, false}, // -0, the smallest subnormal, the largest finite
		{math.Float32bits(-312.5), math.Float32bits(1e-6), math.Float32bits(1e21), 30, true},
		{math.Float32bits(9.999999e-7), math.Float32bits(1e-7), math.Float32bits(123456789), -1, false},
		{0x7fc00000, 0, 0, 0, false}, // NaN
		{0x7f800000, 0, 0, 0, false}, // +Inf
	} {
		f.Add(c.a, c.b, c.c, c.deadline, c.pre)
	}
	f.Fuzz(func(t *testing.T, a, b, c uint32, deadline int, pre bool) {
		req := ScanRequest{D: 1, H: 1, W: 3, DeadlineMS: deadline, PreEnhanced: pre,
			Data: []float32{math.Float32frombits(a), math.Float32frombits(b), math.Float32frombits(c)}}
		want, wantErr := json.Marshal(&req)
		got, err := AppendScan(nil, &req)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("AppendScan error %v, json.Marshal error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendScan = %s, json.Marshal = %s", got, want)
		}
		var back ScanRequest
		body, err := ReadScan(bytes.NewReader(got), &back)
		body.Release()
		if err != nil || !sameScan(back, req) {
			t.Fatalf("ReadScan(AppendScan(%+v)) = %+v, %v", req, back, err)
		}
	})
}

// wireCohort is the serving benchmark's volume shape: phantom scans of
// 8×64×64 HU voxels, one of them nudged off round values.
func wireCohort() []ScanRequest {
	cfg := dataset.DefaultCohortConfig()
	cfg.Count, cfg.Depth, cfg.Size, cfg.Seed = 2, 8, 64, 1
	var out []ScanRequest
	for _, c := range dataset.BuildCohort(cfg) {
		v := c.Volume
		out = append(out, ScanRequest{D: v.D, H: v.H, W: v.W, Data: v.Data})
	}
	nudged := append([]float32(nil), out[0].Data...)
	for i := range nudged {
		nudged[i] += float32(i%7) * 0.0137
	}
	return append(out, ScanRequest{D: out[0].D, H: out[0].H, W: out[0].W, Data: nudged, DeadlineMS: 500, PreEnhanced: true})
}

// TestWireCohortBytesUnchanged: on benchmark-shaped scans, and on
// absent and empty data, AppendScan's bytes are json.Marshal's and
// ReadScan decodes them to the same bits — through the one-pass parser,
// not the fallback, wherever there is data.
func TestWireCohortBytesUnchanged(t *testing.T) {
	for i, req := range append(wireCohort(), ScanRequest{}, ScanRequest{D: 1, Data: []float32{}}) {
		want, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendScan(nil, &req)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("scan %d: AppendScan differs from json.Marshal (err %v)", i, err)
		}
		var back ScanRequest
		if req.Data != nil && (!decodeScan(got, &back) || !sameScan(back, req)) { // null data defers
			t.Fatalf("scan %d: the one-pass parse did not read its own encoding back", i)
		}
		checkSameDecode(t, got)
	}
}

// TestAllocsWireCodec pins the codec's allocations on a warm pool: a
// ReadScan of an 8×64×64 body allocates the voxel slice and nothing
// else, and AppendScan into a buffer with room allocates nothing.
func TestAllocsWireCodec(t *testing.T) {
	if memplan.RaceEnabled {
		t.Skip("sync.Pool drops objects on purpose under -race")
	}
	req := wireCohort()[0]
	enc, err := AppendScan(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(enc)
	var back ScanRequest
	read := func() {
		rd.Reset(enc)
		body, err := ReadScan(rd, &back)
		if err != nil {
			t.Fatal(err)
		}
		body.Release()
	}
	read()
	if n := testing.AllocsPerRun(20, read); n > 1 {
		t.Errorf("warm ReadScan of a %dx%dx%d body: %v allocs, want at most the voxel slice", req.D, req.H, req.W, n)
	}
	if !sameScan(back, req) {
		t.Fatal("ReadScan decoded different voxels")
	}
	dst := make([]byte, 0, len(enc))
	if n := testing.AllocsPerRun(20, func() { dst, _ = AppendScan(dst[:0], &req) }); n != 0 {
		t.Errorf("AppendScan into a buffer with room: %v allocs, want 0", n)
	}
}

// TestOversizedBodyNotPooled: a buffer grown past maxPooledBody by one
// huge scan is dropped by Release, never handed to the next request.
func TestOversizedBodyNotPooled(t *testing.T) {
	big := &Body{B: make([]byte, 0, maxPooledBody+1)}
	big.Release()
	for i := 0; i < 100; i++ {
		if b := bodyPool.Get().(*Body); b == big {
			t.Fatal("a buffer over the pool cap came back from the pool")
		}
	}
	var req ScanRequest
	body, err := ReadScan(io.MultiReader(strings.NewReader(`{"d":1,"h":1,"w":1,"data":[1]}`),
		strings.NewReader(strings.Repeat(" ", maxPooledBody))), &req)
	if err != nil {
		t.Fatal(err)
	}
	if cap(body.B) <= maxPooledBody {
		t.Fatalf("read buffer cap %d, want it past the pool cap %d", cap(body.B), maxPooledBody)
	}
	body.Release()
	for i := 0; i < 100; i++ {
		if b := bodyPool.Get().(*Body); b == body {
			t.Fatal("ReadScan's oversized buffer came back from the pool")
		}
	}
}

// TestScanRequestFieldsCovered guards the codec against a field added
// to ScanRequest without it: AppendScan and decodeScan spell out six.
func TestScanRequestFieldsCovered(t *testing.T) {
	if n := reflect.TypeOf(ScanRequest{}).NumField(); n != 6 {
		t.Fatalf("ScanRequest has %d fields; teach AppendScan and decodeScan the new one", n)
	}
}

// TestParseFloat32MatchesStrconv drives the one-pass number parse over
// both sides of its exact case — digits around 2^24, exponents around
// ±10, signs, zeros and fraction points anywhere — against
// strconv.ParseFloat(s, 32), bit for bit.
func TestParseFloat32MatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 200000; n++ {
		digits := strconv.FormatUint(rng.Uint64()>>rng.Intn(64), 10)
		if p := rng.Intn(len(digits) + 1); p < len(digits) && rng.Intn(2) == 0 {
			digits = digits[:p] + "." + digits[p:]
			if p == 0 {
				digits = "0" + digits
			}
		}
		s := digits
		if rng.Intn(2) == 0 {
			s = "-" + s
		}
		if rng.Intn(3) > 0 {
			s += fmt.Sprintf("e%d", rng.Intn(60)-30)
		}
		want, wantErr := strconv.ParseFloat(s, 32)
		got, end, ok := parseFloat32([]byte(s+","), 0)
		if ok != (wantErr == nil) || ok && end != len(s) {
			t.Fatalf("parseFloat32(%q): ok %v end %d, strconv error %v", s, ok, end, wantErr)
		}
		if ok && math.Float32bits(got) != math.Float32bits(float32(want)) {
			t.Fatalf("parseFloat32(%q) = %#x, strconv %#x", s, math.Float32bits(got), math.Float32bits(float32(want)))
		}
	}
}
