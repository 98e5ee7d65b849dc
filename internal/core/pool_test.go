package core

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// panicky is a keyed allocation policy that, while armed, panics at one
// capacity — inside the pipeline's allocation stage, with its entry lock
// held — and otherwise solves like its inner policy.
type panicky struct {
	armed *atomic.Bool
	at    uint32
	inner pipeline.Allocator
}

func (a panicky) ConfigKey() string { return "panicky|" + a.inner.ConfigKey() }
func (a panicky) Allocate(ctx context.Context, p *pipeline.Pipeline, capacity uint32) (*pipeline.Allocation, error) {
	if capacity == a.at && a.armed.Load() {
		panic("injected allocator panic")
	}
	return a.inner.Allocate(ctx, p, capacity)
}

// TestSweepRecoversPanic: a cell that panics inside a stage becomes that
// cell's error (logged with its stack and request id, counted), the sweep
// returns instead of crashing, and a second sweep on the same lab then
// completes — no entry lock was left held by the panicking stage.
func TestSweepRecoversPanic(t *testing.T) {
	lab, err := NewLabByName("MultiSort")
	if err != nil {
		t.Fatal(err)
	}
	lab.Workers = 4
	var armed atomic.Bool
	armed.Store(true)
	a := panicky{armed: &armed, at: 256, inner: lab.EnergyAllocator()}
	f := func(ctx context.Context, size uint32) (Measurement, error) {
		return lab.WithAllocator(ctx, a, size)
	}

	var logs bytes.Buffer
	old := obs.Log
	obs.Log = obs.NewLogger(&logs, slog.LevelError)
	defer func() { obs.Log = old }()

	before := mPanics.Value()
	ctx := obs.WithRequestID(context.Background(), "panic-rid")
	if _, err := sweep(ctx, lab, "spm", PaperSizes, f); err == nil ||
		!strings.Contains(err.Error(), "spm 256") || !strings.Contains(err.Error(), "injected allocator panic") {
		t.Fatalf("sweep error = %v, want the panic as the 256-byte cell's error", err)
	}
	if got := mPanics.Value() - before; got != 1 {
		t.Errorf("wcetlab_panics_total moved by %d, want 1", got)
	}
	rec := logs.String()
	for _, want := range []string{`"level":"error"`, `"req":"panic-rid"`, "injected allocator panic", "goroutine"} {
		if !strings.Contains(rec, want) {
			t.Errorf("panic log record lacks %s: %s", want, rec)
		}
	}

	armed.Store(false)
	done := make(chan error, 1)
	var ms []Measurement
	go func() {
		var err error
		ms, err = sweep(context.Background(), lab, "spm", PaperSizes, f)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("second sweep: %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("second sweep did not finish: an entry lock was left held")
	}
	if len(ms) != len(PaperSizes) || ms[2].SPMSize != 256 {
		t.Fatalf("second sweep returned %d rows", len(ms))
	}
	want, err := lab.WithScratchpad(context.Background(), 256)
	if err != nil {
		t.Fatal(err)
	}
	if ms[2].WCET != want.WCET || ms[2].SimCycles != want.SimCycles {
		t.Errorf("recovered cell measured %+v, want %+v", ms[2], want)
	}
}
