package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

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
	`{"d":1,"h":1,"w":1,"data":[1e]}`,        // bad number
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
	// Each way a number leaves the eight-byte digit runs: 7 and 8
	// integer digits; 7, 8 and 9 fraction digits; an exponent; a lone
	// and a leading zero; fewer than 17 bytes left in the body.
	`{"d":1,"h":1,"w":4,"data":[1234567,12345678,-1234567.5,-12345678.5,0]}`,
	`{"d":1,"h":1,"w":4,"data":[0.1234567,0.12345678,-5.123456789,1.00000001,0]}`,
	`{"d":1,"h":1,"w":3,"data":[1.5e3,-2.5E-3,0.5,-0,1,2,3,4,5,6,7,8,9]}`,
	`{"d":1,"h":1,"w":2,"data":[01,2,3,4,5,6,7,8,9,10,11,12]}`,
	`{"d":1,"h":1,"w":2,"data":[1.,2,3,4,5,6,7,8,9,10,11,12]}`,
	`{"d":1,"h":1,"w":2,"data":[-12.25,1]}`,
	// An exponent of more than four digits: 1e-1000·1e10000 overflows.
	`{"d":1,"h":1,"w":1,"data":[0.` + strings.Repeat("0", 999) + `1e10000]}`,
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

// checkParseFloat32 fails unless parseFloat32 reads s as
// strconv.ParseFloat(s, 32) does — both accept or both refuse, to the
// same bits, ending at len(s) — both at the body's end, where the
// byte loop reads it, and with 17 more bytes after it, where the digit
// runs may.
func checkParseFloat32(t *testing.T, s string) {
	t.Helper()
	want, wantErr := strconv.ParseFloat(s, 32)
	for _, b := range []string{s, s + ",                "} {
		got, end, ok := parseFloat32([]byte(b), 0)
		if ok != (wantErr == nil) || ok && end != len(s) {
			t.Fatalf("parseFloat32(%q): ok %v end %d, strconv error %v", b, ok, end, wantErr)
		}
		if ok && math.Float32bits(got) != math.Float32bits(float32(want)) {
			t.Fatalf("parseFloat32(%q) = %#x, strconv %#x", b, math.Float32bits(got), math.Float32bits(float32(want)))
		}
	}
}

// TestParseFloat32MatchesStrconv drives the number parse over both
// sides of every limit it has — 7 and 8 integer and fraction digits
// (the digit runs' width), 15 to 19 digits and mantissas around 2^53
// (the exact case's), exponents -8/-9 (the digit runs' fraction width),
// -12/-13 (the exact case's) and 22/23, leading-zero
// fractions, signed and spelled-out zeros — and over random digit
// strings with signs, fraction points and exponents anywhere.
func TestParseFloat32MatchesStrconv(t *testing.T) {
	cases := []string{"0", "-0", "0.0", "-0.0", "0e5", "-0E-3", "1E5", "1e+5", "1e-5", "1.5E2",
		"1234567", "12345678", "-1234567", "-12345678", "1.1234567", "1.12345678", "1.123456789",
		"1234567.1234567", "1234567.12345678", "1234567.123456789", "0.1234567", "0.12345678",
		"0.123456789", "0.01", "0.00000001", "0.000000001", "0.0000123", "-0.000456",
		"123456789012345", "1234567890123456", "12345678901234567", "1234567890123456789",
		"1.23456789012345", "12345678.9012345", "1e-8", "1e-9", "12345e-8", "12345e-9",
		"1e-12", "1e-13", "12345e-12", "12345e-13", "0.123456789012", "0.1234567890123",
		"9007199254740991e-12", "9007199254740991e-13", "3.620224571228027", "36.20224571228027",
		"1e22", "1e23", "3e22", "9e21", "1.5e22", "123e20", "4e15", "5e15", "0.5e23",
		"16777216", "16777217", "16777215.5", "33554431", "33554433", "-1000", "-999.9863",
		// N·10^p past 2^53, where a float64 product would round twice wrongly
		"6379293965308396e2", "1627490569339850e4", "3145372655640195e17"}
	for _, n := range []uint64{1 << 53, 1 << 24, 1 << 25} {
		for d := n - 3; d <= n+3; d++ {
			lit := strconv.FormatUint(d, 10)
			cases = append(cases, lit, lit+"e-8", lit+"e-1", lit[:1]+"."+lit[1:], lit+"e1")
		}
	}
	for _, s := range cases {
		checkParseFloat32(t, s)
	}
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
		checkParseFloat32(t, s)
	}
}

// TestParseFloat32NearMidpoints searches where exactFloat32's one
// float64 division is closest to rounding wrongly: literals N·10^-e with
// e = 9…12 fraction digits (the widest it takes) next to float32
// midpoints, the decimal nearest the midpoint of a random float32 and
// its successor and the two on each side, for magnitudes from 2^-20 to
// 2^13, in both the fraction and the exponent spelling; each must read
// as strconv reads it.
func TestParseFloat32NearMidpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := 25000
	if memplan.RaceEnabled {
		n /= 16
	}
	for i := 0; i < n; i++ {
		bits := uint32(127-20+rng.Intn(34))<<23 | rng.Uint32()&(1<<23-1)
		f := math.Float32frombits(bits)
		mid := (float64(f) + float64(math.Nextafter32(f, math.MaxFloat32))) / 2 // exact
		for e := 9; e <= 12; e++ {
			if mid*math.Pow10(e) >= 1<<53 {
				continue
			}
			near, err := strconv.ParseUint(strings.Replace(strconv.FormatFloat(mid, 'f', e, 64), ".", "", 1), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			for d := near - 2; d <= near+2; d++ {
				digits := fmt.Sprintf("%0*d", e+1, d)
				checkParseFloat32(t, digits[:len(digits)-e]+"."+digits[len(digits)-e:])
				checkParseFloat32(t, fmt.Sprintf("-%de-%d", d, e))
			}
		}
	}
}

var wireSweep = flag.Bool("wiresweep", false, "TestEveryFloat32RoundTrips walks all 2^32 bit patterns (minutes; make wiresweep)")

// TestEveryFloat32RoundTrips takes float32 bit patterns through
// appendFloat32 and back through parseFloat32, at the body's end and
// with room for the digit runs, and checks the original bits,
// strconv's bits and the end index. It walks a stride of all patterns,
// the 64 on each side of 2^24 and 2^53 and of every power of ten in
// range, and both zeros; with -wiresweep, every one of the 2^32.
func TestEveryFloat32RoundTrips(t *testing.T) {
	var patterns []uint32
	for _, x := range []float64{1 << 24, 1 << 53} {
		patterns = append(patterns, around(math.Float32bits(float32(x)))...)
	}
	for e := -45; e <= 38; e++ {
		patterns = append(patterns, around(math.Float32bits(float32(math.Pow10(e))))...)
	}
	for _, bits := range patterns {
		for _, b := range []uint32{bits, bits | 1<<31} {
			if err := roundTrip(b, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	step := uint64(4099)
	if memplan.RaceEnabled {
		step *= 16
	}
	if *wireSweep {
		step = 1
	}
	start := time.Now()
	workers := uint64(runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	errs := make(chan error, workers) // one per worker at most
	for w := uint64(0); w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 0, 64)
			for bits := w * step; bits < 1<<32; bits += workers * step {
				if err := roundTrip(uint32(bits), buf); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	t.Logf("%d patterns, one in %d, in %v", (1<<32+step-1)/step, step, time.Since(start))
}

// around returns the 129 bit patterns centred on bits.
func around(bits uint32) []uint32 {
	out := make([]uint32, 0, 129)
	for d := -64; d <= 64; d++ {
		out = append(out, uint32(int64(bits)+int64(d)))
	}
	return out
}

// roundTrip returns an error unless the float32 with the given bits
// comes back from its encoding/json literal with its own bits, which
// are strconv's, and its end; infinities and NaNs, which JSON cannot
// carry, pass. buf is scratch space.
func roundTrip(bits uint32, buf []byte) error {
	if bits&0x7f800000 == 0x7f800000 {
		return nil
	}
	lit := appendFloat32(buf[:0], math.Float32frombits(bits))
	n := len(lit)
	want, err := strconv.ParseFloat(string(lit), 32)
	if err != nil || math.Float32bits(float32(want)) != bits {
		return fmt.Errorf("strconv reads %s (%#x) as %v, %v", lit, bits, want, err)
	}
	lit = append(lit, ",                "...)
	for _, b := range [][]byte{lit[:n], lit} {
		got, end, ok := parseFloat32(b, 0)
		if !ok || end != n || math.Float32bits(got) != bits {
			return fmt.Errorf("parseFloat32(%q) = %#x, end %d, ok %v; want %#x, end %d", b, math.Float32bits(got), end, ok, bits, n)
		}
	}
	return nil
}

// enhancedLike is the cohort's first phantom moved off its round values
// the way an enhancement pass moves it: scaled, ramped and shifted in
// float32, so three voxels in four print with 8 or 9 significant digits
// (the phantom prints "-1000" for over half of its voxels).
func enhancedLike() ScanRequest {
	req := wireCohort()[0]
	data := make([]float32, len(req.Data))
	for i, x := range req.Data {
		data[i] = x*1.0123457 + float32(i%251)*0.003907 + 0.5
	}
	req.Data = data
	return req
}

// BenchmarkReadScan times the wire decode of one 8×64×64 body: the
// cohort phantom as the serving benchmark sends it, and an enhanced-like
// one whose literals are longer. MB/s counts body bytes.
func BenchmarkReadScan(b *testing.B) {
	for _, c := range []struct {
		name string
		req  ScanRequest
	}{{"cohort", wireCohort()[0]}, {"enhanced", enhancedLike()}} {
		enc, err := AppendScan(nil, &c.req)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			rd := bytes.NewReader(enc)
			var back ScanRequest
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rd.Reset(enc)
				body, err := ReadScan(rd, &back)
				if err != nil {
					b.Fatal(err)
				}
				body.Release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.req.Data)), "ns/voxel")
		})
	}
}
