package wcet

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/link"
)

// cacheCtxSrc exercises everything the cache engine must replay: a shared
// helper called from two sites (interprocedural entry joins), array walks
// (range clobbers), scalar globals (exact classification), literal pools
// and a call chain deeper than one.
const cacheCtxSrc = `
int table[16] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
int weight = 7;
int acc = 0;

int scale(int x) { return x * weight + 100000; }

int sum(int n) {
    int s = 0;
    __loopbound(16) for (int i = 0; i < n; i += 1) s += scale(table[i]);
    return s;
}

int main() {
    acc = sum(16) + sum(8);
    return acc;
}`

// baseProg compiles src and links its scratchpad-less base executable.
func baseProg(t *testing.T, src string) *link.Executable {
	t.Helper()
	prog, err := cc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	base, err := link.Link(prog, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// skeletonOf builds the analysis skeleton of base from the program entry.
func skeletonOf(t testing.TB, base *link.Executable) *Skeleton {
	t.Helper()
	sk, err := NewSkeleton(base)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// engineOn builds one engine on sk.
func engineOn(t testing.TB, sk *Skeleton, opts Options) *Engine {
	t.Helper()
	e, err := sk.Engine(opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCacheContextMatchesCold drives one cache engine through a sweep of
// capacities, associativities and placements — including revisits, an
// immediate repeat, and a data-only move that leaves every code address in
// place — and checks every Result (bound, per-function bounds,
// classification counts, witness) is bit-identical to a from-scratch link
// + Analyze. A second pass over the same sweep must reproduce the first
// pass's results exactly.
func TestCacheContextMatchesCold(t *testing.T) {
	base := baseProg(t, cacheCtxSrc)

	type step struct {
		cacheSize uint32
		spmSize   uint32
		inSPM     map[string]bool
	}
	var steps []step
	for _, size := range []uint32{64, 128, 256} {
		for _, pl := range []step{
			{spmSize: 0},
			{spmSize: 512, inSPM: map[string]bool{"table": true}},
			{spmSize: 512, inSPM: map[string]bool{"scale": true, "weight": true}},
			{spmSize: 512, inSPM: map[string]bool{"table": true}},
			{spmSize: 512, inSPM: map[string]bool{"weight": true}}, // only data moves
			{spmSize: 0}, // revisit
		} {
			steps = append(steps, step{cacheSize: size, spmSize: pl.spmSize, inSPM: pl.inSPM})
		}
	}
	// Immediate repeat of the last step.
	steps = append(steps, steps[len(steps)-1])

	sk := skeletonOf(t, base)
	for _, assoc := range []int{1, 2, 4} {
		ccfg := cache.Config{Assoc: assoc}
		ctx := engineOn(t, sk, Options{Cache: &ccfg, StackBound: 256, Witness: true})
		first := make([]*Result, len(steps))
		for pass := 0; pass < 2; pass++ {
			for i, st := range steps {
				warm, err := ctx.Analyze(context.Background(), st.cacheSize, st.spmSize, st.inSPM, true)
				if err != nil {
					t.Fatalf("assoc %d pass %d step %d: warm: %v", assoc, pass, i, err)
				}
				if pass > 0 {
					if !reflect.DeepEqual(warm, first[i]) {
						t.Fatalf("assoc %d step %d: second pass %+v != first pass %+v", assoc, i, warm, first[i])
					}
					continue
				}
				first[i] = warm
				exe, err := link.Link(base.Prog, st.spmSize, st.inSPM)
				if err != nil {
					t.Fatalf("assoc %d step %d: link: %v", assoc, i, err)
				}
				cold, err := Analyze(exe, Options{
					Cache:      &cache.Config{Size: st.cacheSize, Assoc: assoc},
					StackBound: 256,
					Witness:    true,
				})
				if err != nil {
					t.Fatalf("assoc %d step %d: cold: %v", assoc, i, err)
				}
				if !reflect.DeepEqual(warm, cold) {
					t.Fatalf("assoc %d step %d (cache %d, spm %d, %v): warm %+v != cold %+v",
						assoc, i, st.cacheSize, st.spmSize, st.inSPM, warm, cold)
				}
			}
			if ctx.Stats().FuncsReanalyzed == 0 {
				t.Fatalf("assoc %d pass %d: nothing re-analyzed", assoc, pass)
			}
		}
		if cs := ctx.Stats(); cs.Analyses != uint64(2*len(steps)) {
			t.Fatalf("assoc %d: analyses = %d, want %d", assoc, cs.Analyses, 2*len(steps))
		}
	}
}

// TestCacheContextInstructionOnly covers the paper's instruction-cache
// variant through the engine.
func TestCacheContextInstructionOnly(t *testing.T) {
	base := baseProg(t, cacheCtxSrc)
	ccfg := cache.Config{InstructionOnly: true}
	ctx := engineOn(t, skeletonOf(t, base), Options{Cache: &ccfg, StackBound: 256})
	for _, size := range []uint32{64, 256} {
		warm, err := ctx.Analyze(context.Background(), size, 0, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		exe, err := link.Link(base.Prog, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Analyze(exe, Options{
			Cache:      &cache.Config{Size: size, InstructionOnly: true},
			StackBound: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Fatalf("size %d: warm %+v != cold %+v", size, warm, cold)
		}
	}
}

// TestCacheEngineHoldsNoMustState: after each analysis a cache engine
// keeps only block costs and classification counts of its MUST pass —
// no abstract cache state and no state pool is reachable from it — so
// its retained heap does not depend on which capacity it analysed last,
// and a repeat of the last analysis is bit-identical to it.
func TestCacheEngineHoldsNoMustState(t *testing.T) {
	base := baseProg(t, cacheCtxSrc)
	bg := context.Background()
	for _, assoc := range []int{1, 2} {
		ccfg := cache.Config{Assoc: assoc}
		e := engineOn(t, skeletonOf(t, base), Options{Cache: &ccfg})
		for _, size := range []uint32{128, 1024, 256} {
			first, err := e.Analyze(bg, size, 256, map[string]bool{"scale": true}, true)
			if err != nil {
				t.Fatal(err)
			}
			if path := mustStatePath(reflect.ValueOf(e), "engine", map[uintptr]bool{}); path != "" {
				t.Fatalf("assoc %d cache %d: the engine still holds MUST state at %s", assoc, size, path)
			}
			again, err := e.Analyze(bg, size, 256, map[string]bool{"scale": true}, true)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("assoc %d cache %d: repeat %+v, first %+v", assoc, size, again, first)
			}
		}
	}
}

var (
	mustStateType = reflect.TypeOf(mustState{})
	statePoolType = reflect.TypeOf(statePool{})
)

// mustStatePath returns the path of the first MUST state or state pool
// reachable from v, or "" when there is none.
func mustStatePath(v reflect.Value, path string, seen map[uintptr]bool) string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return ""
		}
		seen[v.Pointer()] = true
		return mustStatePath(v.Elem(), path, seen)
	case reflect.Interface:
		if v.IsNil() {
			return ""
		}
		return mustStatePath(v.Elem(), path, seen)
	case reflect.Struct:
		if v.Type() == mustStateType || v.Type() == statePoolType {
			return path
		}
		for i := 0; i < v.NumField(); i++ {
			if p := mustStatePath(v.Field(i), path+"."+v.Type().Field(i).Name, seen); p != "" {
				return p
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p := mustStatePath(v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen); p != "" {
				return p
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if p := mustStatePath(it.Value(), fmt.Sprintf("%s[%v]", path, it.Key()), seen); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestCacheContextErrorsMatchLink pins error parity in both engine modes:
// the engine surfaces the linker's placement diagnostics (capacity over the
// maximum, a resident at capacity 0, overflow) and the cache validation
// errors exactly as the cold path does.
func TestCacheContextErrorsMatchLink(t *testing.T) {
	base := baseProg(t, cacheCtxSrc)
	sk := skeletonOf(t, base)
	placements := []struct {
		name    string
		spmSize uint32
		inSPM   map[string]bool
	}{
		{"over-max", link.SPMMax + 1, nil},
		{"capacity-0", 0, map[string]bool{"table": true}},
		{"overflow", 4, map[string]bool{"table": true}},
	}
	for _, mode := range []struct {
		name      string
		cache     *cache.Config
		cacheSize uint32
	}{{"cache-less", nil, 0}, {"cache", &cache.Config{}, 128}} {
		e := engineOn(t, sk, Options{Cache: mode.cache})
		for _, pl := range placements {
			_, warmErr := e.Analyze(context.Background(), mode.cacheSize, pl.spmSize, pl.inSPM, false)
			_, coldErr := link.Link(base.Prog, pl.spmSize, pl.inSPM)
			if warmErr == nil || coldErr == nil || warmErr.Error() != coldErr.Error() {
				t.Fatalf("%s %s: engine %v, cold link %v", mode.name, pl.name, warmErr, coldErr)
			}
		}
		// The engine still serves a valid placement after the errors.
		if _, err := e.Analyze(context.Background(), mode.cacheSize, 512, map[string]bool{"table": true}, false); err != nil {
			t.Fatalf("%s: valid placement after errors: %v", mode.name, err)
		}
	}
	// The engine's base layout has no scratchpad.
	spmExe, err := link.Link(base.Prog, 512, map[string]bool{"table": true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSkeleton(spmExe); err == nil {
		t.Error("skeleton built from a scratchpad link")
	}
	// Invalid cache size: same message as cache.Config.Validate.
	e := engineOn(t, sk, Options{Cache: &cache.Config{}})
	_, warmErr := e.Analyze(context.Background(), 100, 0, nil, false)
	badCfg := cache.Config{Size: 100}
	coldErr := badCfg.Validate()
	if warmErr == nil || coldErr == nil || warmErr.Error() != coldErr.Error() {
		t.Fatalf("bad size: warm %v, cold validate %v", warmErr, coldErr)
	}
}
