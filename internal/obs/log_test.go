package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer serialises writes so the test can read concurrently-written
// output back safely.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]slog.Level{
		"off": LevelOff, "error": slog.LevelError, "warn": slog.LevelWarn,
		"info": slog.LevelInfo, "debug": slog.LevelDebug,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"verbose", "INFO", "INFO+2", "8", ""} {
		if _, err := ParseLevel(s); err == nil {
			t.Errorf("ParseLevel accepted %q", s)
		}
	}
	if LevelOff <= slog.LevelError {
		t.Errorf("LevelOff %v does not mute error records", LevelOff)
	}
}

// TestLogStartsOff: the process logger writes nothing until its level is
// raised, so one-shot subcommands and library users stay silent.
func TestLogStartsOff(t *testing.T) {
	if got := LogLevel.Level(); got != LevelOff {
		t.Errorf("LogLevel starts at %v, want LevelOff", got)
	}
	for _, l := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		if Log.Enabled(context.Background(), l) {
			t.Errorf("process logger enabled at %v before any -log", l)
		}
	}
}

func TestLoggerLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	var level slog.LevelVar
	l := NewLogger(&buf, &level)
	ctx := context.Background()
	l.DebugContext(ctx, "hidden")
	l.InfoContext(ctx, "shown-info")
	l.WarnContext(ctx, "shown-warn")
	l.ErrorContext(ctx, "shown-error")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Error("debug record passed an info-level logger")
	}
	for _, want := range []string{"shown-info", "shown-warn", "shown-error"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output %q", want, out)
		}
	}

	level.Set(LevelOff)
	buf.Reset()
	l.ErrorContext(ctx, "muted")
	if buf.Len() != 0 {
		t.Error("off-level logger wrote a record")
	}
	if l.Enabled(ctx, slog.LevelError) {
		t.Error("Enabled(error) true at level off")
	}

	level.Set(slog.LevelDebug)
	if !l.Enabled(ctx, slog.LevelDebug) {
		t.Error("Enabled(debug) false at level debug")
	}
	l.DebugContext(ctx, "now-visible")
	if !strings.Contains(buf.String(), "now-visible") {
		t.Error("debug record dropped at debug level")
	}
}

func TestLoggerRecordShape(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelInfo)
	ctx := WithRequestID(context.Background(), "rid-1")
	l.InfoContext(ctx, `he said "hi"`, "route", "/v1/wcet", "status", 200, "dur_ms", 1.25)

	line := strings.TrimSuffix(buf.String(), "\n")
	if strings.Contains(line, "\n") {
		t.Fatalf("record spans multiple lines: %q", line)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("record is not valid JSON: %q: %v", line, err)
	}
	if rec["level"] != "info" || rec["msg"] != `he said "hi"` || rec["req"] != "rid-1" {
		t.Fatalf("record fields wrong: %v", rec)
	}
	if rec["route"] != "/v1/wcet" || rec["status"] != float64(200) || rec["dur_ms"] != 1.25 {
		t.Fatalf("attrs wrong: %v", rec)
	}
	ts, ok := rec["ts"].(string)
	if !ok {
		t.Fatalf("missing ts: %v", rec)
	}
	if _, err := time.Parse("2006-01-02T15:04:05.000Z", ts); err != nil {
		t.Errorf("ts %q is not UTC with milliseconds: %v", ts, err)
	}
	// The exact wire bytes: fixed keys first, "req" right after "msg".
	want := `{"ts":"` + ts + `","level":"info","msg":"he said \"hi\"","req":"rid-1","route":"/v1/wcet","status":200,"dur_ms":1.25}`
	if line != want {
		t.Errorf("record\n%s\nwant\n%s", line, want)
	}

	// Every level name is lowercase.
	buf.Reset()
	l.WarnContext(ctx, "w")
	l.ErrorContext(ctx, "e")
	if out := buf.String(); !strings.Contains(out, `"level":"warn","msg":"w"`) ||
		!strings.Contains(out, `"level":"error","msg":"e"`) {
		t.Errorf("level names not lowercase: %s", out)
	}

	// No request id in context → no req key.
	buf.Reset()
	l.Info("plain")
	rec = nil
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &rec); err != nil {
		t.Fatal(err)
	}
	if _, ok := rec["req"]; ok {
		t.Fatalf("req key present without a request id: %v", rec)
	}
}

// TestLoggerConcurrency hammers one logger from many goroutines while its
// level changes and asserts every emitted line is intact, valid JSON (run
// under -race for the data-race half of the guarantee).
func TestLoggerConcurrency(t *testing.T) {
	var buf syncBuffer
	var level slog.LevelVar
	level.Set(slog.LevelDebug)
	l := NewLogger(&buf, &level)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := WithRequestID(context.Background(), NewRequestID())
			for i := 0; i < 200; i++ {
				l.LogAttrs(ctx, slog.LevelInfo, "msg", slog.Int("worker", w), slog.Int("i", i))
				if i%3 == 0 {
					// Concurrent level changes must be safe; info
					// records pass at both levels.
					level.Set([]slog.Level{slog.LevelDebug, slog.LevelInfo}[i%2])
				}
			}
		}(w)
	}
	wg.Wait()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 8*200 {
		t.Fatalf("got %d lines, want %d", len(lines), 8*200)
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("interleaved/corrupt record: %q", line)
		}
	}
}

func TestLoggerBadAttrDegrades(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelInfo)
	l.Info("bad", "ch", make(chan int), "nan", math.NaN(), "time", "not a time.Time")
	if !json.Valid(bytes.TrimSpace(buf.Bytes())) {
		t.Fatalf("unmarshalable attr broke record syntax: %q", buf.String())
	}
}

func TestRuntimeSample(t *testing.T) {
	r := NewRegistry()
	SampleRuntime(r)
	SetBuildInfo(r)
	vals := map[string]float64{}
	for _, f := range r.Snapshot() {
		for _, s := range f.Samples {
			vals[f.Name] = s.Value
		}
	}
	if vals["wcetlab_goroutines"] < 1 {
		t.Errorf("goroutines gauge = %g, want >= 1", vals["wcetlab_goroutines"])
	}
	if vals["wcetlab_heap_inuse_bytes"] <= 0 {
		t.Errorf("heap gauge = %g, want > 0", vals["wcetlab_heap_inuse_bytes"])
	}
	if vals["wcetlab_gc_pause_p99_seconds"] < 0 {
		t.Errorf("gc pause gauge negative: %g", vals["wcetlab_gc_pause_p99_seconds"])
	}
	if vals["wcetlab_build_info"] != 1 {
		t.Errorf("build info gauge = %g, want 1", vals["wcetlab_build_info"])
	}
	// Exposition stays well-formed with the runtime gauges present.
	var w strings.Builder
	if err := r.WritePrometheus(&w); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(w.String(), "wcetlab_build_info{") {
		t.Error("build info labels missing from exposition")
	}
}
