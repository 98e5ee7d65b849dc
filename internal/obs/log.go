package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
)

// LevelOff is above every level a record is written at, so a logger at
// LevelOff writes nothing.
const LevelOff = slog.LevelError + 4

// ParseLevel parses a -log flag value. Accepted: off, error, warn, info,
// debug — nothing else, not even slog's "INFO+2" offsets.
func ParseLevel(s string) (slog.Level, error) {
	switch s {
	case "off":
		return LevelOff, nil
	case "error":
		return slog.LevelError, nil
	case "warn":
		return slog.LevelWarn, nil
	case "info":
		return slog.LevelInfo, nil
	case "debug":
		return slog.LevelDebug, nil
	}
	return LevelOff, fmt.Errorf("unknown log level %q (want off, error, warn, info or debug)", s)
}

// LogLevel is Log's level. It starts at LevelOff, so library consumers
// and one-shot subcommands write nothing unless `wcetlab -log` turns it
// up.
var LogLevel = func() *slog.LevelVar {
	v := new(slog.LevelVar)
	v.Set(LevelOff)
	return v
}()

// Log is the process-wide logger: JSON records on stderr at LogLevel.
// It is never installed as slog's default, whose handler would write at
// info level.
var Log = NewLogger(os.Stderr, LogLevel)

// NewLogger returns a logger writing one JSON record per line to w:
//
//	{"ts":"2026-01-02T15:04:05.999Z","level":"info","msg":"serving","addr":"http://…"}
//
// A record written under a context that carries a request id has it as
// "req" right after "msg", so a log line correlates with the span tree
// and the metric series of the same request.
func NewLogger(w io.Writer, level slog.Leveler) *slog.Logger {
	return slog.New(reqHandler{slog.NewJSONHandler(w, &slog.HandlerOptions{
		Level:       level,
		ReplaceAttr: recordKeys,
	})})
}

// recordKeys renames slog's built-in time to "ts" (UTC, milliseconds) and
// lowercases the level. It sees every attribute, so a caller's own "time"
// that is not a time.Time passes through untouched instead of panicking.
func recordKeys(groups []string, a slog.Attr) slog.Attr {
	if len(groups) > 0 {
		return a
	}
	switch {
	case a.Key == slog.TimeKey && a.Value.Kind() == slog.KindTime:
		return slog.String("ts", a.Value.Time().UTC().Format("2006-01-02T15:04:05.000Z07:00"))
	case a.Key == slog.LevelKey:
		return slog.String(slog.LevelKey, strings.ToLower(a.Value.String()))
	}
	return a
}

// reqHandler stamps each record with the request id its context carries.
type reqHandler struct{ slog.Handler }

func (h reqHandler) Handle(ctx context.Context, r slog.Record) error {
	if id := RequestID(ctx); id != "" {
		stamped := slog.NewRecord(r.Time, r.Level, r.Message, r.PC)
		stamped.AddAttrs(slog.String("req", id))
		r.Attrs(func(a slog.Attr) bool {
			stamped.AddAttrs(a)
			return true
		})
		r = stamped
	}
	return h.Handler.Handle(ctx, r)
}

func (h reqHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return reqHandler{h.Handler.WithAttrs(attrs)}
}

func (h reqHandler) WithGroup(name string) slog.Handler {
	return reqHandler{h.Handler.WithGroup(name)}
}
