package alloc_test

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/energy"
	"repro/internal/pipeline"
)

// TestConfigKeys pins the store keys of the three policies. A solve is
// persisted under its policy's ConfigKey and served to every later
// process, so a key that changes orphans every warm store, and one that
// stays while the solve changes serves stale placements.
func TestConfigKeys(t *testing.T) {
	m := energy.Default()
	for _, tc := range []struct {
		policy pipeline.Allocator
		want   string
	}{
		{alloc.EnergyAllocator{Model: m},
			"energy|auto|mainB=24,mainH=24,mainW=49.3,spm=1.2,cpu=1.4"},
		{alloc.Directed{Model: m},
			"wcet|gran=object|maxiter=8|energy=mainB=24,mainH=24,mainW=49.3,spm=1.2,cpu=1.4|stack=0|root=|seeds=|seed=(energy|auto|mainB=24,mainH=24,mainW=49.3,spm=1.2,cpu=1.4)"},
		{alloc.Directed{Model: m, Granularity: alloc.GranBlock},
			"wcet|gran=block|maxiter=8|energy=mainB=24,mainH=24,mainW=49.3,spm=1.2,cpu=1.4|stack=0|root=|seeds=|seed=(energy|auto|mainB=24,mainH=24,mainW=49.3,spm=1.2,cpu=1.4)"},
		{alloc.Budgeted{Budget: 2650000, Model: m},
			"pareto|budget=2650000|maxiter=8|energy=mainB=24,mainH=24,mainW=49.3,spm=1.2,cpu=1.4|stack=0|root=|fallback=(wcet|gran=object|maxiter=8|energy=mainB=24,mainH=24,mainW=49.3,spm=1.2,cpu=1.4|stack=0|root=|seeds=|seed=(energy|auto|mainB=24,mainH=24,mainW=49.3,spm=1.2,cpu=1.4))"},
	} {
		if got := tc.policy.ConfigKey(); got != tc.want {
			t.Errorf("%T key\n got %s\nwant %s", tc.policy, got, tc.want)
		}
	}
}

// TestParetoOptionsValidate: 0 is the default front size and any cap of
// at least 2 can be honoured; a cap of 1 or a negative one cannot, since a
// non-degenerate front keeps both endpoints.
func TestParetoOptionsValidate(t *testing.T) {
	for _, tc := range []struct {
		maxPoints int
		ok        bool
	}{{0, true}, {2, true}, {9, true}, {1, false}, {-1, false}} {
		for _, adaptive := range []bool{false, true} {
			err := alloc.ParetoOptions{Adaptive: adaptive, MaxPoints: tc.maxPoints}.Validate()
			if (err == nil) != tc.ok {
				t.Errorf("MaxPoints %d adaptive %v: err = %v, want ok=%v", tc.maxPoints, adaptive, err, tc.ok)
			}
		}
	}
}
