package core

import (
	"context"
	"testing"

	"repro/internal/alloc"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// simRunKinds names the simulate stage's split counters in stageRuns.
var simRunKinds = map[string]string{
	"wcetlab_sim_executed_total": "executed",
	"wcetlab_sim_retimed_total":  "retimed",
	"wcetlab_sim_swept_total":    "swept",
}

// stageRuns reads the cold-execution counters back out of the process-wide
// registry for one benchmark, keyed by stage, plus the simulate stage's
// "executed", "retimed" and "swept" runs.
func stageRuns(bench string) map[string]uint64 {
	out := map[string]uint64{}
	for _, f := range obs.Default.Snapshot() {
		kind, split := simRunKinds[f.Name]
		if !split && f.Name != "wcetlab_stage_runs_total" {
			continue
		}
		for _, s := range f.Samples {
			if s.Label("bench") != bench {
				continue
			}
			key := kind
			if !split {
				key = s.Label("stage")
			}
			out[key] += uint64(s.Value)
		}
	}
	return out
}

// TestMetricsMirrorStats runs a parallel sweep and asserts the registry's
// run counters moved by exactly the pipeline's own Stats deltas — the
// instrumentation adds zero stage executions and loses none under
// concurrent workers.
func TestMetricsMirrorStats(t *testing.T) {
	// The window opens before lab construction so the profile collected
	// there is part of the delta, exactly as it is part of Stats.
	before := stageRuns("MultiSort")
	lab, err := NewLabByName("MultiSort")
	if err != nil {
		t.Fatal(err)
	}
	lab.Workers = 4
	if _, err := lab.SweepScratchpad(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Block granularity measures split partitions, which the interpreter
	// runs.
	if _, err := lab.WithWCETAllocationGran(context.Background(), 1024, alloc.GranBlock); err != nil {
		t.Fatal(err)
	}
	if _, err := lab.SweepCache(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := lab.Pipe.Stats()
	after := stageRuns("MultiSort")
	delta := func(stage string) uint64 { return after[stage] - before[stage] }

	want := map[string]uint64{
		"link":     st.Links,
		"simulate": st.Sims,
		"analyze":  st.Analyses,
		"alloc":    st.Allocs,
		"profile":  st.Profiles,
		"executed": st.Sims - st.SimsRetimed - st.SimsSwept,
		"retimed":  st.SimsRetimed,
		"swept":    st.SimsSwept,
	}
	for stage, w := range want {
		if got := delta(stage); got != w {
			t.Errorf("registry %s runs moved by %d, Stats says %d", stage, got, w)
		}
	}
	if st.SimsRetimed == 0 || st.SimsSwept == 0 || st.SimsRetimed+st.SimsSwept == st.Sims || st.Analyses == 0 {
		t.Fatalf("sweeps did not retime, sweep and execute simulations and analyse (sims=%d retimed=%d swept=%d analyses=%d) — test is vacuous",
			st.Sims, st.SimsRetimed, st.SimsSwept, st.Analyses)
	}

	// Latency histograms must hold exactly one observation per cold run.
	lat := pipeline.StageLatency("MultiSort")
	if lat["analyze"].Count < st.Analyses {
		t.Errorf("analyze latency count %d < cold analyses %d", lat["analyze"].Count, st.Analyses)
	}
}

// TestSweepTraceHierarchy runs a traced sweep and asserts the recorded
// spans reconstruct sweep → cell → stage with stage spans strictly inside
// cell spans.
func TestSweepTraceHierarchy(t *testing.T) {
	lab, err := NewLabByName("MultiSort")
	if err != nil {
		t.Fatal(err)
	}
	lab.Workers = 4
	obs.DefaultTracer.Enable()
	defer obs.DefaultTracer.Disable()
	if _, err := lab.SweepScratchpad(context.Background()); err != nil {
		t.Fatal(err)
	}
	spans := obs.DefaultTracer.Spans()

	byID := map[uint64]obs.SpanData{}
	var sweeps, cells, stages, solves int
	for _, d := range spans {
		byID[d.ID] = d
	}
	for _, d := range spans {
		switch {
		case d.Name == "sweep":
			sweeps++
			if d.Parent != 0 {
				t.Errorf("sweep span has parent %d", d.Parent)
			}
		case d.Name == "cell":
			cells++
			if byID[d.Parent].Name != "sweep" {
				t.Errorf("cell span parented to %q, want sweep", byID[d.Parent].Name)
			}
		case len(d.Name) > 6 && d.Name[:6] == "stage:":
			stages++
			// Stage spans nest under a cell (directly or through another
			// stage/fixpoint span); walk up to the nearest cell and check
			// strict containment.
			anc := byID[d.Parent]
			for anc.Name != "" && anc.Name != "cell" && anc.Name != "sweep" {
				anc = byID[anc.Parent]
			}
			if d.Parent != 0 && anc.Name == "cell" {
				if d.Start.Before(anc.Start) || d.Start.Add(d.Dur).After(anc.Start.Add(anc.Dur)) {
					t.Errorf("stage span %s not strictly inside its cell", d.Name)
				}
			}
		case d.Name == "solve":
			solves++
		}
	}
	if sweeps == 0 || cells == 0 || stages == 0 {
		t.Fatalf("trace incomplete: %d sweeps, %d cells, %d stage spans", sweeps, cells, stages)
	}
	if cells != len(PaperSizes) {
		t.Errorf("got %d cell spans, want %d (one per capacity)", cells, len(PaperSizes))
	}
}
