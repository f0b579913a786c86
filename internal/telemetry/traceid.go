package telemetry

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"strings"
	"sync"
)

// This file gives spans real distributed identities: a 16-byte trace ID
// shared by every span of one causal tree (across processes), an 8-byte span
// ID per span, and the W3C traceparent wire form that carries both across
// the HTTP API boundary. Stitching happens at analysis time — each process
// archives its own spans.json, and internal/timeline merges them by trace ID
// exactly like a distributed tracing backend would.

// idRand is the span/trace ID source. math/rand/v2's global functions are
// safe for concurrent use, but a dedicated ChaCha8 stream keeps ID draws from
// perturbing any simulation RNG and lets tests pin the sequence.
var (
	idMu   sync.Mutex
	idRand *rand.Rand = rand.New(rand.NewChaCha8(seedFromGlobal()))
)

func seedFromGlobal() [32]byte {
	var seed [32]byte
	for i := 0; i < len(seed); i += 8 {
		binary.LittleEndian.PutUint64(seed[i:], rand.Uint64())
	}
	return seed
}

// SetIDSeed reseeds the ID generator — tests pin it for reproducible IDs.
func SetIDSeed(seed uint64) {
	var s [32]byte
	binary.LittleEndian.PutUint64(s[:], seed)
	idMu.Lock()
	idRand = rand.New(rand.NewChaCha8(s))
	idMu.Unlock()
}

func randHex(nbytes int) string {
	buf := make([]byte, nbytes)
	idMu.Lock()
	for i := 0; i < nbytes; i += 8 {
		binary.BigEndian.PutUint64(buf[i:], idRand.Uint64())
	}
	idMu.Unlock()
	return hex.EncodeToString(buf)
}

// NewTraceID returns a fresh 32-hex-digit trace ID (never all-zero, which
// W3C reserves as invalid).
func NewTraceID() string {
	for {
		if id := randHex(16); id != zeroTraceID {
			return id
		}
	}
}

// NewSpanID returns a fresh 16-hex-digit span ID (never all-zero).
func NewSpanID() string {
	id := newSpanID()
	return hex.EncodeToString(id[:])
}

// newSpanID draws a span ID as randHex(8) would, kept in binary until it is
// encoded or asked for.
func newSpanID() [8]byte {
	var id [8]byte
	for id == [8]byte{} {
		idMu.Lock()
		binary.BigEndian.PutUint64(id[:], idRand.Uint64())
		idMu.Unlock()
	}
	return id
}

const (
	zeroTraceID = "00000000000000000000000000000000"
	zeroSpanID  = "0000000000000000"
)

// FormatTraceParent renders the W3C traceparent header value (version 00,
// sampled flag set) for a trace/span ID pair.
func FormatTraceParent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// ParseTraceParent decodes a W3C traceparent header value. A malformed,
// unknown-version, or all-zero header yields ok == false — callers fall back
// to a fresh root trace, never an error: a bad peer must not be able to fail
// a request by sending garbage tracing metadata.
func ParseTraceParent(s string) (traceID, spanID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 {
		return "", "", false
	}
	version, tid, sid := parts[0], parts[1], parts[2]
	if len(version) != 2 || !isHex(version) || version == "ff" {
		return "", "", false
	}
	// Version 00 has exactly 4 fields; future versions may append more, and
	// the spec says to parse the leading fields anyway.
	if version == "00" && len(parts) != 4 {
		return "", "", false
	}
	if len(tid) != 32 || !isHex(tid) || tid == zeroTraceID {
		return "", "", false
	}
	if len(sid) != 16 || !isHex(sid) || sid == zeroSpanID {
		return "", "", false
	}
	if len(parts[3]) != 2 || !isHex(parts[3]) {
		return "", "", false
	}
	return tid, sid, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// TraceParentHeader is the canonical header name (lowercase per W3C; Go's
// http canonicalizes on set/get either way).
const TraceParentHeader = "traceparent"

type traceParentCtxKey struct{}

// ContextWithTraceParent records a remote parent reference on the context
// without starting any span: the next trace rooted from this context (runner
// or campaign) adopts the remote trace ID and parents its root span under
// the remote span. An empty or malformed value is carried as "" — adoption
// then falls back to a fresh root.
func ContextWithTraceParent(ctx context.Context, tp string) context.Context {
	if _, _, ok := ParseTraceParent(tp); !ok {
		return ctx
	}
	return context.WithValue(ctx, traceParentCtxKey{}, tp)
}

// PendingTraceParent returns the remote parent reference installed by
// ContextWithTraceParent, or "".
func PendingTraceParent(ctx context.Context) string {
	tp, _ := ctx.Value(traceParentCtxKey{}).(string)
	return tp
}

// TraceParentFromContext derives the outgoing traceparent for a request made
// from ctx: the current span's identity when one is active, else any pending
// remote parent being carried through, else "".
func TraceParentFromContext(ctx context.Context) string {
	if s := SpanFromContext(ctx); s != nil {
		return s.TraceParent()
	}
	return PendingTraceParent(ctx)
}
