package sim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/link"
	"repro/internal/mem"
	"repro/internal/sim"
)

// profileMatchesReference fails unless CollectProfile's profile of exe
// equals the reference profiler's: every object's counts, the stack's
// count and low-water mark, the run's result and its final memory.
func profileMatchesReference(t *testing.T, what string, exe *link.Executable) {
	t.Helper()
	got, err := sim.CollectProfile(exe, sim.Options{})
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, err := refProfile(exe)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	gotMem, wantMem := got.Result.Mem, want.Result.Mem
	segs, refSegs := append([]*mem.Segment{gotMem.SPM}, gotMem.Main...), append([]*mem.Segment{wantMem.SPM}, wantMem.Main...)
	for i, s := range segs {
		if s != nil && !bytes.Equal(s.Data, refSegs[i].Data) {
			t.Errorf("%s: final %s segment differs from the reference", what, s.Name)
		}
	}
	got.Result.Mem, want.Result.Mem = nil, nil
	if reflect.DeepEqual(got, want) {
		return
	}
	t.Errorf("%s: stack %d accesses down to %#x, result %+v; reference %d down to %#x, %+v", what,
		got.StackAccesses, got.MinStackAddr, *got.Result, want.StackAccesses, want.MinStackAddr, *want.Result)
	for name, w := range want.ByObject {
		if g := got.ByObject[name]; g == nil || *g != *w {
			t.Errorf("%s: %s: %+v, reference %+v", what, name, g, *w)
		}
	}
	if len(got.ByObject) != len(want.ByObject) {
		t.Errorf("%s: %d objects, reference %d", what, len(got.ByObject), len(want.ByObject))
	}
}

// TestProfileMatchesReference: on every benchmark, without a scratchpad
// and under a 1 KB energy allocation, and on generated programs under
// random 4 KB placements, the counted profile equals the reference
// profiler's.
func TestProfileMatchesReference(t *testing.T) {
	forBenchmarks(t, []uint32{0, 1024}, profileMatchesReference)
	t.Run("generated", func(t *testing.T) {
		t.Parallel()
		for seed := range int64(12) {
			exe := generated(t, seed, uint64(seed+1)*0x94D049BB133111EB)
			if exe == nil {
				t.Errorf("seed %d: placement does not fit", seed)
				continue
			}
			profileMatchesReference(t, fmt.Sprintf("seed %d", seed), exe)
		}
	})
}

// FuzzProfileMatchesReference: a generated program under a random
// scratchpad placement profiles as it does on the reference profiler.
func FuzzProfileMatchesReference(f *testing.F) {
	f.Add(int64(1), uint64(0))
	f.Add(int64(2), uint64(0b1010))
	f.Fuzz(func(t *testing.T, seed int64, placement uint64) {
		if exe := generated(t, seed, placement); exe != nil {
			profileMatchesReference(t, fmt.Sprintf("seed %d placement %#x", seed, placement), exe)
		}
	})
}
