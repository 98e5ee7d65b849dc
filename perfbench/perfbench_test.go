package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json perfbench must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsSmoke runs every workload for a few ops, untraced and
// traced, with output verification and the layer-share checks on, and
// requires every metric BENCHMARK.json lists, with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl.Name, trace), func(t *testing.T) {
				cfg := config{workload: wl.Name, seed: 7, trace: trace, repo: "..",
					workDir: t.TempDir(), rounds: 2, setups: 1}
				res, info, err := run(cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, info.Failures)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				if !trace {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
				}
			})
		}
	}
}

// TestReferenceRejectsOneCycle pins that verification is exact: a
// simulator that changes a single cycle fails its op.
func TestReferenceRejectsOneCycle(t *testing.T) {
	ref, err := loadReference("..")
	if err != nil {
		t.Fatal(err)
	}
	row, ok := ref.Paper["G.721/spm/64"]
	if !ok {
		t.Fatal("reference has no G.721/spm/64")
	}
	if err := ref.paper("G.721", "spm", 64, row); err != nil {
		t.Fatalf("reference row does not match itself: %v", err)
	}
	row.SimCycles++
	if err := ref.paper("G.721", "spm", 64, row); err == nil {
		t.Fatal("a one-cycle difference passed verification")
	}
}

func TestTailLatency(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	v, pct, beyond := tailLatency(xs)
	if v != 90 || pct != 90 || beyond != 10 {
		t.Fatalf("tail of 1..100 = %v at p%v with %d beyond, want 90 at p90 with 10", v, pct, beyond)
	}
	if v, _, beyond := tailLatency([]float64{3, 1, 2}); v != 3 || beyond != 0 {
		t.Fatalf("tail of three samples = %v with %d beyond, want the maximum", v, beyond)
	}
}
