package core

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/alloc"
	"repro/internal/benchprog"
)

var updateGolden = flag.Bool("update", false, "rewrite the allocation golden files")

// goldenAlloc is one allocator's outcome at one capacity, in a canonical,
// diffable form.
type goldenAlloc struct {
	WCET   uint64   `json:"wcet"`
	Energy float64  `json:"energy_nj"`
	Used   uint32   `json:"spm_used"`
	InSPM  []string `json:"in_spm"`
}

// goldenRow pins both allocators at one benchmark × capacity.
type goldenRow struct {
	Benchmark string      `json:"benchmark"`
	SPMSize   uint32      `json:"spm_size"`
	Energy    goldenAlloc `json:"energy_directed"`
	WCET      goldenAlloc `json:"wcet_directed"`
	// BlockWCET is the WCET-directed bound at block granularity (the
	// placement itself varies with the split partition and is covered by
	// the granularity dominance tests; the certified bound is pinned).
	BlockWCET uint64 `json:"block_wcet"`
}

func sortedNames(inSPM map[string]bool) []string {
	names := []string{}
	for n, in := range inSPM {
		if in {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

func toGolden(m Measurement) goldenAlloc {
	return goldenAlloc{WCET: m.WCET, Energy: m.Energy, Used: m.SPMUsed}
}

// TestAllocationGoldens pins the exact output of the energy-directed and
// WCET-directed allocators — bound, modelled energy, occupancy and the
// placement itself — for every benchmark × paper capacity. The engine
// refactor (objective-parameterized solver) must keep these byte-identical:
// regenerate with `go test ./internal/core -run Golden -update` only for a
// deliberate, explained output change.
func TestAllocationGoldens(t *testing.T) {
	for _, b := range benchprog.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			lab, err := NewLabWithStore(b, nil)
			if err != nil {
				t.Fatal(err)
			}
			var rows []goldenRow
			for _, size := range PaperSizes {
				c, err := lab.WithWCETAllocationGran(context.Background(), size, alloc.GranObject)
				if err != nil {
					t.Fatal(err)
				}
				ealloc, err := lab.Pipe.Allocate(context.Background(), lab.EnergyAllocator(), size)
				if err != nil {
					t.Fatal(err)
				}
				walloc, err := lab.Pipe.Allocate(context.Background(), lab.WCETAllocatorGran(alloc.GranObject), size)
				if err != nil {
					t.Fatal(err)
				}
				blk, err := lab.Pipe.Allocate(context.Background(), lab.WCETAllocatorGran(alloc.GranBlock), size)
				if err != nil {
					t.Fatal(err)
				}
				bm, err := lab.measureAllocation(context.Background(), size, blk)
				if err != nil {
					t.Fatal(err)
				}
				row := goldenRow{
					Benchmark: b.Name,
					SPMSize:   size,
					Energy:    toGolden(c.Energy),
					WCET:      toGolden(c.WCET),
					BlockWCET: bm.WCET,
				}
				row.Energy.InSPM = sortedNames(ealloc.InSPM)
				row.WCET.InSPM = sortedNames(walloc.InSPM)
				rows = append(rows, row)
			}
			path := filepath.Join("testdata", "golden", b.Name+".json")
			if *updateGolden {
				data, err := json.MarshalIndent(rows, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			var want []goldenRow
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rows, want) {
				got, _ := json.MarshalIndent(rows, "", "  ")
				t.Errorf("allocation outputs diverged from %s:\ngot:\n%s", path, got)
			}
		})
	}
}
