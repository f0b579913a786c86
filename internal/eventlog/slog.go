package eventlog

import (
	"context"
	"log/slog"
	"strconv"

	"pos/internal/telemetry"
)

// Reserved slog attribute keys promoted into typed Event fields by the tee
// handler; everything else lands in Event.Attrs.
const (
	KeyReplica = "replica"
	KeyNode    = "node"
	KeyPhase   = "phase"
	KeyRun     = "run"
	KeyError   = "err"

	// Trace correlation attrs stamped by Logger when the context carries an
	// active span — they stay in Event.Attrs (not typed fields) so journal
	// output can be grepped by trace without a schema change.
	KeyTraceID = "trace_id"
	KeySpanID  = "span_id"
)

type loggerKey struct{}

// WithLogger attaches a structured logger to the context. The runner,
// scheduler, and tool services pull it back out with Logger — the logging
// spine is carried by context, never by globals.
func WithLogger(ctx context.Context, lg *slog.Logger) context.Context {
	return context.WithValue(ctx, loggerKey{}, lg)
}

// Logger returns the context's logger, or a discard logger when none is
// attached — callers log unconditionally and the spine decides whether the
// records go anywhere. Inside a traced context every record is stamped with
// trace_id/span_id attrs, so `posctl watch -trace` filters by trace. The
// stamping happens here (not in Handle) because slog.Logger methods hand
// context.Background to the handler, not the caller's context.
func Logger(ctx context.Context) *slog.Logger {
	lg, ok := ctx.Value(loggerKey{}).(*slog.Logger)
	if !ok || lg == nil {
		return discardLogger
	}
	if s := telemetry.SpanFromContext(ctx); s != nil {
		return lg.With(KeyTraceID, s.TraceID(), KeySpanID, s.SpanID())
	}
	return lg
}

// discardHandler is a no-op slog.Handler. (slog.DiscardHandler only exists
// from Go 1.24; this module's language version is older.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

var discardLogger = slog.New(discardHandler{})

// Discard returns a logger whose records go nowhere.
func Discard() *slog.Logger { return discardLogger }

// Handler is a slog.Handler that tees records into an event pipeline as
// TypeLog events. Reserved keys (replica, node, phase, run, err) become
// typed Event fields; remaining attrs are carried as strings in Event.Attrs.
type Handler struct {
	p     *Pipeline
	level slog.Leveler
	attrs []slog.Attr
	group string
}

// NewHandler tees records at or above level (nil means slog.LevelInfo) into p.
func NewHandler(p *Pipeline, level slog.Leveler) *Handler {
	if level == nil {
		level = slog.LevelInfo
	}
	return &Handler{p: p, level: level}
}

// NewLogger is shorthand for slog.New(NewHandler(p, level)).
func NewLogger(p *Pipeline, level slog.Leveler) *slog.Logger {
	return slog.New(NewHandler(p, level))
}

// Enabled implements slog.Handler.
func (h *Handler) Enabled(_ context.Context, level slog.Level) bool {
	return level >= h.level.Level()
}

// WithAttrs implements slog.Handler.
func (h *Handler) WithAttrs(attrs []slog.Attr) slog.Handler {
	nh := *h
	nh.attrs = append(append([]slog.Attr(nil), h.attrs...), attrs...)
	return &nh
}

// WithGroup implements slog.Handler. Groups prefix non-reserved keys.
func (h *Handler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	nh := *h
	if h.group != "" {
		nh.group = h.group + "." + name
	} else {
		nh.group = name
	}
	return &nh
}

// Handle implements slog.Handler: the record becomes one published event.
func (h *Handler) Handle(_ context.Context, rec slog.Record) error {
	ev := Event{Typ: TypeLog, Level: rec.Level.String(), Message: rec.Message, Run: NoRun, At: rec.Time}
	absorb := func(a slog.Attr) {
		key := a.Key
		val := a.Value.Resolve()
		if h.group == "" {
			switch key {
			case KeyReplica:
				ev.Replica = val.String()
				return
			case KeyNode:
				ev.Node = val.String()
				return
			case KeyPhase:
				ev.Phase = val.String()
				return
			case KeyError:
				ev.Error = val.String()
				return
			case KeyRun:
				if n, err := strconv.Atoi(val.String()); err == nil {
					ev.Run = n
					return
				}
			}
		} else {
			key = h.group + "." + key
		}
		if ev.Attrs == nil {
			ev.Attrs = make(map[string]string)
		}
		ev.Attrs[key] = val.String()
	}
	for _, a := range h.attrs {
		absorb(a)
	}
	rec.Attrs(func(a slog.Attr) bool {
		absorb(a)
		return true
	})
	h.p.Publish(ev)
	return nil
}
