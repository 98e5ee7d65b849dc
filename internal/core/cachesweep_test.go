package core

import (
	"context"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/obs"
	"repro/internal/store"
)

// TestSweepCacheOnePass: a cold cache sweep runs the interpreter once for
// all eight capacities, a sweep over a warm store runs it not at all, and
// both measure every capacity exactly as WithCache does on its own.
func TestSweepCacheOnePass(t *testing.T) {
	ctx := context.Background()
	// Retired instructions count every interpreter run of the process;
	// no parallel test runs alongside this one.
	instrs := obs.Default.Counter("wcetlab_sim_instructions_total", "")
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, err := benchprog.ByName("MultiSort")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewLabWithStore(b, st)
	if err != nil {
		t.Fatal(err)
	}
	before := instrs.Value()
	got, err := cold.SweepCache(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ran, one := instrs.Value()-before, cold.Profile.Result.Instrs; ran != one {
		t.Errorf("cold sweep retired %d instructions, want one pass of %d", ran, one)
	}
	if s := cold.Pipe.Stats(); s.Sims != uint64(len(PaperSizes)) || s.SimsSwept != s.Sims {
		t.Errorf("cold sweep: %d of %d simulations swept, want all %d", s.SimsSwept, s.Sims, len(PaperSizes))
	}

	ref, err := NewLabWithStore(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, size := range PaperSizes {
		want, err := ref.WithCache(ctx, size, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("%d B: swept %+v, single %+v", size, got[i], want)
		}
	}

	warm, err := NewLabWithStore(b, st)
	if err != nil {
		t.Fatal(err)
	}
	before = instrs.Value()
	again, err := warm.SweepCache(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ran := instrs.Value() - before; ran != 0 {
		t.Errorf("warm sweep retired %d instructions, want none", ran)
	}
	if s := warm.Pipe.Stats(); s.Sims != 0 || s.SimDiskHits != uint64(len(PaperSizes)) {
		t.Errorf("warm sweep: %d simulations, %d disk hits, want 0/%d", s.Sims, s.SimDiskHits, len(PaperSizes))
	}
	for i := range again {
		if again[i] != got[i] {
			t.Errorf("%d B: warm %+v, cold %+v", PaperSizes[i], again[i], got[i])
		}
	}
}
