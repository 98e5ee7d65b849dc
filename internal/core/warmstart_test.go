package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/store"
	"repro/internal/wcet"
)

// TestFreshProcessReanalysisIdentical drives the full pipeline/store loop:
// a second "process" (fresh lab, same store, analyses evicted) re-analyses
// every capacity from scratch and derives identical bounds.
func TestFreshProcessReanalysisIdentical(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bench, err := benchprog.ByName("MultiSort")
	if err != nil {
		t.Fatal(err)
	}
	lab1, err := NewLabWithStore(bench, st)
	if err != nil {
		t.Fatal(err)
	}
	coldRes := make(map[uint32]*wcet.Result, len(PaperSizes))
	for _, size := range PaperSizes {
		inSPM := greedyPlacement(lab1.Pipe.Prog, size)
		r, err := lab1.Pipe.AnalyzeUnits(context.Background(), nil, size, inSPM, wcet.Options{})
		if err != nil {
			t.Fatalf("cap %d: cold: %v", size, err)
		}
		coldRes[size] = r
	}
	// Evict the memoized analyses so the second process must re-analyse,
	// keeping everything else warm.
	if _, _, err := st.DropKinds(store.KindWCET); err != nil {
		t.Fatal(err)
	}

	lab2, err := NewLabWithStore(bench, st)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range PaperSizes {
		inSPM := greedyPlacement(lab2.Pipe.Prog, size)
		r, err := lab2.Pipe.AnalyzeUnits(context.Background(), nil, size, inSPM, wcet.Options{})
		if err != nil {
			t.Fatalf("cap %d: fresh: %v", size, err)
		}
		if r.WCET != coldRes[size].WCET || !reflect.DeepEqual(r.PerFunction, coldRes[size].PerFunction) {
			t.Errorf("cap %d: fresh-process bounds differ from cold", size)
		}
	}
	if s := lab2.Pipe.Stats(); s.AnalyzeDiskMisses != uint64(len(PaperSizes)) {
		t.Errorf("second process missed the store on %d analyses, want %d", s.AnalyzeDiskMisses, len(PaperSizes))
	}
}
