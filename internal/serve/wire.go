package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"sync"
)

// This file is the scan wire codec: the one large thing the program
// sends over HTTP is a volume object, {d,h,w,data,deadline_ms,
// pre_enhanced}, and every hop that carries voxels (a replica's
// /v1/scan and /v1/enhance, the gateway's /v1/scan, its chunk fan-out,
// its chunk-reply decode and its pre-enhanced resubmit) goes through
// ReadScan and AppendScan.
//
// ReadScan parses the canonical object — the keys above, spelled
// exactly, each at most once, numbers in data, integers in the
// dimensions — in one pass into an exactly sized voxel slice. Anything
// else falls back to json.Unmarshal over the same bytes, so the language
// accepted and every decoded bit stay encoding/json's; FuzzReadScan
// checks the two against each other. AppendScan writes the bytes
// json.Marshal would, so no body on the wire changes.

// ScanRequest is the POST /v1/scan body: a D×H×W volume in Hounsfield
// units, row-major slice by slice, plus an optional per-request deadline.
// PreEnhanced marks a volume that already went through Enhancement AI
// (the gateway's sharded scatter/gather path submits these after
// reassembly); the worker skips the enhancement stage and runs
// segment+classify directly. The flag is part of the cache identity, so
// a raw volume and the byte-identical pre-enhanced one never collide.
//
// POST /v1/enhance takes the same object and answers with it: the
// enhanced chunk in the request's row-major layout, deadline and flag
// omitted. AppendScan writes encoding/json's bytes, whose float32
// literals are shortest-form and round-trip exactly, so a volume
// crosses the wire bit for bit — the property the gateway's
// bit-identical sharding rests on.
type ScanRequest struct {
	D           int       `json:"d"`
	H           int       `json:"h"`
	W           int       `json:"w"`
	Data        []float32 `json:"data"`
	DeadlineMS  int       `json:"deadline_ms,omitempty"`
	PreEnhanced bool      `json:"pre_enhanced,omitempty"`
}

// DefaultMaxVoxels is the admission limit when Config.MaxVoxels is unset.
const DefaultMaxVoxels = 1 << 26

// A volume crosses the wire as a JSON array of floats. One voxel costs
// at most bodyBytesPerVoxel bytes — a float64-precision literal with
// sign and exponent is 24 ("-1.2345678901234567e-100"), plus its comma
// and room for whitespace — and the rest of a ScanRequest (field names,
// dimensions, deadline) fits in bodyEnvelopeBytes.
const (
	bodyBytesPerVoxel = 32
	bodyEnvelopeBytes = 4096
)

// MaxBodyBytes is the largest request body a volume of maxVoxels voxels
// can need.
func MaxBodyBytes(maxVoxels int) int64 {
	return bodyEnvelopeBytes + int64(maxVoxels)*bodyBytesPerVoxel
}

// LimitBody caps how much of the request body a handler will read at
// MaxBodyBytes(maxVoxels), so an oversized or endless body is cut off
// at the bound instead of being buffered whole before the MaxVoxels
// check can reject it. Reads past the bound fail with an error
// BodyErrorStatus maps to 413.
func LimitBody(w http.ResponseWriter, r *http.Request, maxVoxels int) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes(maxVoxels))
}

// CheckDims validates the volume a request declares — every dimension
// positive, at most maxVoxels voxels, exactly one data value per voxel
// — and returns the HTTP status to refuse it with (400, or 413 over
// the limit).
func (r *ScanRequest) CheckDims(maxVoxels int) (status int, err error) {
	if r.D <= 0 || r.H <= 0 || r.W <= 0 {
		return http.StatusBadRequest, fmt.Errorf("dimensions must be positive, got %dx%dx%d", r.D, r.H, r.W)
	}
	voxels, ok := boundedVoxels(r.D, r.H, r.W, maxVoxels)
	if !ok {
		return http.StatusRequestEntityTooLarge,
			fmt.Errorf("volume %dx%dx%d exceeds the limit of %d voxels", r.D, r.H, r.W, maxVoxels)
	}
	if len(r.Data) != voxels {
		return http.StatusBadRequest, fmt.Errorf("data has %d values, want %d", len(r.Data), voxels)
	}
	return 0, nil
}

// boundedVoxels returns d·h·w for positive dimensions when it is at most
// limit. The count is bounded before each multiplication: a product of
// attacker-chosen dimensions can wrap to any value, including
// len(Data), and the dimensions then size allocations.
func boundedVoxels(d, h, w, limit int) (int, bool) {
	voxels := 1
	for _, n := range [...]int{d, h, w} {
		if n > limit/voxels {
			return 0, false
		}
		voxels *= n
	}
	return voxels, true
}

// BodyErrorStatus is the status for a failed read or decode of a
// LimitBody-bounded body: 413 when the bound was hit, 400 otherwise.
func BodyErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// maxPooledBody is the largest buffer Release returns to the pool. A
// bigger one — a single huge scan — is left to the GC, so it cannot pin
// its memory in a long-running replica.
const maxPooledBody = 4 << 20

var bodyPool = sync.Pool{New: func() any { return new(Body) }}

// Body is a pooled buffer holding one wire body.
type Body struct{ B []byte }

// Release returns b to the pool; b must not be used afterwards. A nil
// Body is a no-op.
func (b *Body) Release() {
	if b == nil || cap(b.B) > maxPooledBody {
		return
	}
	b.B = b.B[:0]
	bodyPool.Put(b)
}

// ReadScan reads r to the end into a pooled Body and decodes it into
// *req exactly as json.Unmarshal decodes it into a zero ScanRequest;
// whatever *req held before is overwritten. Read errors (a LimitBody
// overrun among them) and decode errors are returned as they are, with
// no Body; otherwise the caller owns the Body and releases it once
// nothing reads its bytes. The decoded voxels never alias it.
func ReadScan(r io.Reader, req *ScanRequest) (*Body, error) {
	b := bodyPool.Get().(*Body)
	if err := b.readFrom(r); err != nil {
		b.Release()
		return nil, err
	}
	*req = ScanRequest{}
	if !decodeScan(b.B, req) {
		*req = ScanRequest{}
		if err := json.Unmarshal(b.B, req); err != nil {
			b.Release()
			return nil, err
		}
	}
	return b, nil
}

// readFrom replaces b's contents with all of r.
func (b *Body) readFrom(r io.Reader) error {
	b.B = b.B[:0]
	for {
		if len(b.B) == cap(b.B) {
			b.B = slices.Grow(b.B, 512)
		}
		n, err := r.Read(b.B[len(b.B):cap(b.B)])
		b.B = b.B[:len(b.B)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// The keys of the canonical object, one bit each.
const (
	keyD = 1 << iota
	keyH
	keyW
	keyData
	keyDeadline
	keyPre
)

// decodeScan is ReadScan's one-pass parse of the canonical object. It
// reports false, leaving *req partly written, on anything outside that
// grammar; the caller then defers to json.Unmarshal.
func decodeScan(b []byte, req *ScanRequest) bool {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return skipSpace(b, i+1) == len(b)
	}
	var seen int
	for {
		if i == len(b) || b[i] != '"' {
			return false
		}
		j := i + 1
		for j < len(b) && b[j] != '"' && b[j] != '\\' {
			j++
		}
		if j == len(b) || b[j] != '"' {
			return false // an escape in the key, or no closing quote
		}
		key := b[i+1 : j]
		if i = skipSpace(b, j+1); i == len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)

		var bit int
		ok := false
		switch string(key) {
		case "d":
			bit = keyD
			req.D, i, ok = parseInt(b, i)
		case "h":
			bit = keyH
			req.H, i, ok = parseInt(b, i)
		case "w":
			bit = keyW
			req.W, i, ok = parseInt(b, i)
		case "data":
			bit = keyData
			var size int // presize only from dimensions the body can hold
			if seen&(keyD|keyH|keyW) == keyD|keyH|keyW && req.D > 0 && req.H > 0 && req.W > 0 {
				size, _ = boundedVoxels(req.D, req.H, req.W, (len(b)-i)/2+1)
			}
			req.Data, i, ok = parseData(b, i, size)
		case "deadline_ms":
			bit = keyDeadline
			req.DeadlineMS, i, ok = parseInt(b, i)
		case "pre_enhanced":
			bit = keyPre
			req.PreEnhanced, i, ok = parseBool(b, i)
		}
		if !ok || seen&bit != 0 {
			return false // unknown key, repeated key, or a value to defer
		}
		seen |= bit

		i = skipSpace(b, i)
		if i == len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return skipSpace(b, i+1) == len(b)
		default:
			return false
		}
	}
}

// skipSpace returns the index of the first non-whitespace byte at or
// after i (JSON whitespace: space, tab, newline, carriage return).
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// parseInt parses a JSON integer that fits an int. A fraction or an
// exponent ends the parse early, so decodeScan defers, as it does on an
// overflow: json.Unmarshal refuses both.
func parseInt(b []byte, i int) (int, int, bool) {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	k := skipDigits(b, j)
	if k == j || b[j] == '0' && k > j+1 {
		return 0, i, false // no digits, or a leading zero
	}
	n, err := strconv.Atoi(string(b[i:k]))
	return n, k, err == nil
}

func parseBool(b []byte, i int) (bool, int, bool) {
	switch {
	case len(b)-i >= 4 && string(b[i:i+4]) == "true":
		return true, i + 4, true
	case len(b)-i >= 5 && string(b[i:i+5]) == "false":
		return false, i + 5, true
	}
	return false, i, false
}

// parseData parses a JSON array of numbers into float32 voxels, each
// rounded as strconv.ParseFloat(s, 32) — encoding/json's parse — rounds
// it. size is the expected count (0 when unknown): the slice is
// allocated once at that size, and grows by append only when the body
// holds more. A literal beyond float32's range, which encoding/json
// refuses, defers.
func parseData(b []byte, i, size int) ([]float32, int, bool) {
	if i == len(b) || b[i] != '[' {
		return nil, i, false
	}
	data := make([]float32, 0, size)
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return data, i + 1, true
	}
	for {
		f, end, ok := parseFloat32(b, i)
		if !ok {
			return nil, i, false
		}
		data = append(data, f)
		if end+1 < len(b) && b[end] == ',' && b[end+1] > ' ' {
			i = end + 1 // no whitespace, as AppendScan writes it
			continue
		}
		i = skipSpace(b, end)
		if i == len(b) {
			return nil, i, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return data, i + 1, true
		default:
			return nil, i, false
		}
	}
}

// parseFloat32 parses the JSON number at b[i] to the bits
// strconv.ParseFloat(s, 32) gives it, returning the end of the number;
// ok is false when no number starts there or it overflows float32. The
// digits are read once, into a decimal mantissa N and exponent p with
// value N·10^p, and exactFloat32 rounds every N·10^p that one float64
// operation computes exactly enough; strconv rounds the rest.
//
// A scan is made of plain decimals, and those are read eight bytes at a
// time, with no branch per digit: when at least 17 bytes of body follow
// the sign, one load takes the integer digits (1 to 7, no leading zero)
// and, after a '.', a second the fraction digits (1 to 8), so N < 10^15
// and -8 <= p <= 0, always the exact case. Anything else — more digits,
// an exponent, a leading zero, the body's last bytes — goes to
// scanNumber, which reads a byte at a time.
func parseFloat32(b []byte, i int) (float32, int, bool) {
	j := i
	neg := j < len(b) && b[j] == '-'
	if neg {
		j++
	}
	var mant uint64
	exp, end, ok := 0, 0, false
	if len(b)-j >= 17 {
		w := (*[17]byte)(b[j:])
		x := binary.LittleEndian.Uint64(w[:8])
		if n := digitRun(x); 0 < n && n < 8 && (n == 1 || w[0] != '0') {
			mant, end, ok = digitsValue(x, n), n, true
			if w[n] == '.' {
				y := binary.LittleEndian.Uint64(w[n+1:])
				m := digitRun(y)
				mant = mant*uint64Pow10[m] + digitsValue(y, m)
				exp, end = -m, n+1+m
				ok = m > 0
			}
			c := w[end] // a ninth fraction digit, or an exponent, is scanNumber's
			ok = ok && (c < '0' || c > '9') && c|0x20 != 'e'
			end += j
		}
	}
	if !ok {
		if mant, exp, end, ok = scanNumber(b, j); !ok {
			return 0, i, false
		}
	}
	if f, ok := exactFloat32(mant, exp); ok {
		if neg {
			f = -f
		}
		return f, end, true
	}
	f, err := strconv.ParseFloat(string(b[i:end]), 32)
	return float32(f), end, err == nil
}

// The bytes of a uint64 loaded little endian from the body, the first
// byte lowest: each constant here repeats its byte eight times.
const (
	lanes    = 0x0101010101010101
	laneTops = 0x8080808080808080
)

// digitRun returns how many of x's bytes, lowest first, are ASCII
// digits before the first that is not; 8 when all are. A byte c is a
// digit when neither c+0x46 (':' and above reach 0x80) nor c-0x30
// (below '0' wraps past 0x7f) sets its top bit; a byte from 0xba up
// wraps the sum but sets the difference's. Carries and borrows start
// only at a byte that is not a digit, so none reaches the lowest one.
func digitRun(x uint64) int {
	return bits.TrailingZeros64(((x+0x46*lanes)|(x-0x30*lanes))&laneTops) >> 3
}

// digitsValue returns the value of the n (1 to 8) ASCII digits in x's
// lowest bytes; for n = 0, a value no caller uses. Shifted up, the
// digits take the high bytes and zeros (leading zero digits) the rest;
// three multiply-shifts then sum neighbouring digits, pairs and quads
// (Lemire, "Number parsing at a gigabyte per second",
// arXiv:2101.11408). The shift is masked to 63, which changes no count
// in range and spares the compiler's guard.
func digitsValue(x uint64, n int) uint64 {
	x = (x & (0x0f * lanes)) << ((64 - 8*n) & 63)
	x = (x * (10<<8 + 1) >> 8) & 0x00ff00ff00ff00ff
	x = (x * (100<<16 + 1) >> 16) & 0x0000ffff0000ffff
	return x * (10000<<32 + 1) >> 32
}

// uint64Pow10 scales an integer part past its fraction's digits.
var uint64Pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// scanNumber reads the JSON number at b[j], past its sign, a byte at a
// time, returning N and p of its value N·10^p and its end; ok is false
// when no number starts there. N counts every digit while it is below
// 2^53, and once past it stays past, so a mantissa or an exponent
// (beyond four digits) too long to be exact comes back as N >= 2^53,
// which exactFloat32 leaves to strconv.
func scanNumber(b []byte, j int) (mant uint64, exp, end int, ok bool) {
	digit := func(k int) bool { return k < len(b) && '0' <= b[k] && b[k] <= '9' }
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case digit(j):
		for ; digit(j); j++ {
			if mant < 1<<53 {
				mant = mant*10 + uint64(b[j]-'0')
			}
		}
	default:
		return 0, 0, j, false
	}
	if j < len(b) && b[j] == '.' {
		j++
		k := j
		for ; digit(j); j++ {
			if mant < 1<<53 {
				mant = mant*10 + uint64(b[j]-'0')
			}
			exp--
		}
		if j == k {
			return 0, 0, j, false
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		sign := 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			if b[j] == '-' {
				sign = -1
			}
			j++
		}
		k, e := j, 0
		for ; digit(j); j++ {
			if j-k < 4 {
				e = e*10 + int(b[j]-'0')
			}
		}
		switch {
		case j == k:
			return 0, 0, j, false
		case j-k > 4:
			mant = 1 << 53
		}
		exp += sign * e
	}
	return mant, exp, j, true
}

// float64Pow10 holds the powers of ten float64 represents exactly.
var float64Pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// exactFloat32 returns N·10^p rounded to float32 as strconv rounds it,
// when N is 0, or when N < 2^53 and either -8 <= p <= 0, or p > 0 and
// N·10^p < 2^53; ok is false otherwise.
//
// Both operands of the one float64 multiply or divide are exact, and
// for p >= 0 so is the product. For p = -e < 0 the quotient v = N/10^e
// is rounded twice, to float64 and then to float32, and that is the
// rounding strconv does unless the first step moves v across, or onto,
// a float32 midpoint m = M·2^k (M odd, M < 2^25); a v equal to m stays
// m, which float64 holds. Otherwise 10^e·2^max(0,-k)·(v-m) is a nonzero
// integer, so |v-m| >= 2^min(0,k)/10^e, while the float64 step moves v
// by at most 2^-53·|v|:
//   - k >= 0: |v-m| >= 10^-e, and 2^-53·|v| < 10^-e since N < 2^53;
//   - k < 0: |v-m| >= m/(M·10^e) > m/(2^25·10^8) > 2.9e-16·m, so
//     2^-53·|v| <= 2^-53·(m+|v-m|) < (0.39+2^-53)·|v-m|.
//
// Either way the float64 quotient stays strictly on v's side of m. The
// bound on the second case is why e stops at 8: at 9 it is 2.9e-17.
func exactFloat32(mant uint64, exp int) (float32, bool) {
	switch {
	case mant == 0:
		return 0, true
	case mant >= 1<<53 || exp < -8 || exp >= len(float64Pow10):
		return 0, false
	case exp < 0:
		return float32(float64(mant) / float64Pow10[-exp]), true
	}
	f := float64(mant) * float64Pow10[exp]
	return float32(f), f < 1<<53
}

// AppendScan appends to dst the bytes json.Marshal(req) returns, and
// refuses a NaN or infinite voxel as json.Marshal does. Voxels are
// written by strconv.AppendFloat(…, 32) with encoding/json's switch to
// exponent form below 1e-6 and from 1e21 and its two-digit exponent
// clean-up. Given room in dst it allocates nothing.
func AppendScan(dst []byte, req *ScanRequest) ([]byte, error) {
	dst = append(dst, `{"d":`...)
	dst = strconv.AppendInt(dst, int64(req.D), 10)
	dst = append(dst, `,"h":`...)
	dst = strconv.AppendInt(dst, int64(req.H), 10)
	dst = append(dst, `,"w":`...)
	dst = strconv.AppendInt(dst, int64(req.W), 10)
	dst = append(dst, `,"data":`...)
	if req.Data == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for k, x := range req.Data {
			if k > 0 {
				dst = append(dst, ',')
			}
			if math.Float32bits(x)&0x7f800000 == 0x7f800000 {
				return dst, fmt.Errorf("serve: voxel %d is %v, which JSON cannot carry", k, x)
			}
			dst = appendFloat32(dst, x)
		}
		dst = append(dst, ']')
	}
	if req.DeadlineMS != 0 {
		dst = append(dst, `,"deadline_ms":`...)
		dst = strconv.AppendInt(dst, int64(req.DeadlineMS), 10)
	}
	if req.PreEnhanced {
		dst = append(dst, `,"pre_enhanced":true`...)
	}
	return append(dst, '}'), nil
}

// appendFloat32 is encoding/json's float32 encoder for a finite x.
func appendFloat32(dst []byte, x float32) []byte {
	format := byte('f')
	if abs := float32(math.Abs(float64(x))); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, float64(x), format, -1, 32)
	if format == 'e' {
		// e-07 becomes e-7
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// writeScan answers 200 with req in AppendScan's encoding, ended by the
// newline json.Encoder writes after a value, from a pooled buffer.
func writeScan(w http.ResponseWriter, req *ScanRequest) {
	b := bodyPool.Get().(*Body)
	defer b.Release()
	var err error
	if b.B, err = AppendScan(b.B[:0], req); err != nil {
		httpError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	b.B = append(b.B, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b.B)
}
