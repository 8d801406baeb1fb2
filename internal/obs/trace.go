package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"sync/atomic"
)

// TraceID identifies one request-scoped trace: every span recorded on
// behalf of the same request shares it, across goroutines and (via the
// traceparent header) across processes. The zero value means "no trace".
type TraceID [16]byte

// IsZero reports whether t is the absent trace id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the id as 32 lowercase hex digits (the W3C
// trace-context wire form).
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// MarshalText implements encoding.TextMarshaler, so trace ids render as
// hex strings in JSON flight-recorder dumps.
func (t TraceID) MarshalText() ([]byte, error) {
	out := make([]byte, 32)
	hex.Encode(out, t[:])
	return out, nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (t *TraceID) UnmarshalText(b []byte) error {
	_, err := hex.Decode(t[:], b)
	return err
}

// SpanID identifies one span within a trace. The zero value means "no
// span" (a root span's Parent).
type SpanID [8]byte

// IsZero reports whether s is the absent span id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// MarshalText implements encoding.TextMarshaler.
func (s SpanID) MarshalText() ([]byte, error) {
	out := make([]byte, 16)
	hex.Encode(out, s[:])
	return out, nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (s *SpanID) UnmarshalText(b []byte) error {
	_, err := hex.Decode(s[:], b)
	return err
}

// SpanContext is the propagatable identity of a span: enough to continue
// its trace in another goroutine or process.
type SpanContext struct {
	Trace TraceID `json:"trace_id"`
	Span  SpanID  `json:"span_id"`
}

// IsZero reports whether sc carries no identity (disabled tracing).
func (sc SpanContext) IsZero() bool { return sc.Trace.IsZero() }

// Traceparent renders sc as a W3C trace-context traceparent header
// value: version 00, sampled flag set.
func (sc SpanContext) Traceparent() string {
	return "00-" + sc.Trace.String() + "-" + sc.Span.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header value
// ("00-<32 hex>-<16 hex>-<2 hex>", lowercase hex only). It accepts any
// version byte but ff and ignores the flags, per the spec's
// forward-compatibility rules, and rejects all-zero trace or span ids
// and uppercase hex digits, which the spec's grammar does not allow.
func ParseTraceparent(s string) (SpanContext, bool) {
	var sc SpanContext
	if len(s) != 55 || s[:2] == "ff" {
		return sc, false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if i == 2 || i == 35 || i == 52 {
			if c != '-' {
				return sc, false
			}
		} else if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return sc, false
		}
	}
	// Every digit is lowercase hex now, so neither decode can fail.
	hex.Decode(sc.Trace[:], []byte(s[3:35]))
	hex.Decode(sc.Span[:], []byte(s[36:52]))
	if sc.Trace.IsZero() || sc.Span.IsZero() {
		return sc, false
	}
	return sc, true
}

// remoteKey keys an inbound SpanContext (parsed from a traceparent
// header) in a context.Context; StartCtx continues that trace instead of
// opening a new one.
type remoteKey struct{}

// ContextWithRemote returns a context carrying an inbound span identity.
// The next StartCtx on it starts a span in sc's trace with sc as parent.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if sc.IsZero() {
		return ctx
	}
	return context.WithValue(ctx, remoteKey{}, sc)
}

// ID generation: a per-process random base (crypto-seeded once) mixed
// with an atomic counter through splitmix64 — collision-free within a
// process, unpredictable across processes, and lock-free per span.
var (
	idBase    uint64
	idCounter atomic.Uint64
)

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		idBase = binary.LittleEndian.Uint64(b[:])
	} else {
		idBase = 0x9e3779b97f4a7c15 // fixed fallback: ids stay unique in-process
	}
}

// splitmix64 is the SplitMix64 output function: a bijective mixer whose
// outputs over sequential inputs are statistically random.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func nextIDWord() uint64 {
	for {
		if v := splitmix64(idBase + idCounter.Add(1)); v != 0 {
			return v
		}
	}
}

func newTraceID() TraceID {
	var t TraceID
	binary.LittleEndian.PutUint64(t[0:8], nextIDWord())
	binary.LittleEndian.PutUint64(t[8:16], nextIDWord())
	return t
}

func newSpanID() SpanID {
	var s SpanID
	binary.LittleEndian.PutUint64(s[:], nextIDWord())
	return s
}

// goroutineID parses the current goroutine's id from its stack header
// ("goroutine N [running]:"). It costs a few hundred nanoseconds, so it
// is computed only when span collection is enabled; the id gives every
// goroutine a stable Chrome-trace track, so concurrent spans (serving
// workers, slice-split forwards, DDP ranks) render side by side instead
// of stacking on one synthetic track.
func goroutineID() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// Skip "goroutine " (10 bytes) and read digits.
	var id int64
	for _, c := range buf[10:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}
