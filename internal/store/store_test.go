package store_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/link"
	"repro/internal/obj"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wcet"
)

const testProgram = `
int a[32];

int suma() {
    int s = 0;
    for (int i = 0; i < 32; i += 1) s = s + a[i];
    return s;
}

int main() {
    int s = 0;
    for (int k = 0; k < 4; k += 1) s = s + suma();
    return s & 7;
}
`

// artifacts compiles the test program and produces one artifact of every
// persisted type, including a witness-bearing analysis and a cache-mode
// simulation (so the classification counters are exercised).
func artifacts(t *testing.T) (prog *obj.Program, simRes *sim.Result, prof *sim.Profile, wres, cres *wcet.Result) {
	t.Helper()
	prog, err := cc.Compile(testProgram)
	if err != nil {
		t.Fatal(err)
	}
	exe, err := link.Link(prog, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := &cache.Config{Size: 256, Assoc: 1}
	sims, err := sim.RunCaches(exe, []cache.Config{*ccfg})
	if err != nil {
		t.Fatal(err)
	}
	simRes = sims[0]
	if prof, err = sim.CollectProfile(exe, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if wres, err = wcet.Analyze(exe, wcet.Options{Witness: true}); err != nil {
		t.Fatal(err)
	}
	if cres, err = wcet.Analyze(exe, wcet.Options{Cache: ccfg, StackBound: 512}); err != nil {
		t.Fatal(err)
	}
	return
}

func open(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sameSim compares the persisted scalar fields (Mem is not persisted).
func sameSim(a, b *sim.Result) bool {
	return a.Cycles == b.Cycles && a.Instrs == b.Instrs &&
		a.CacheHits == b.CacheHits && a.CacheMisses == b.CacheMisses &&
		a.ExitCode == b.ExitCode
}

// TestRoundTripIdentity: every artifact type must round-trip to an
// identical value (up to the documented Mem drop) and an identical
// re-encoding.
func TestRoundTripIdentity(t *testing.T) {
	prog, simRes, prof, wres, cres := artifacts(t)
	s := open(t)
	pk := store.ProgramKey(prog)

	if err := s.SaveSim(pk, "sim", simRes); err != nil {
		t.Fatal(err)
	}
	gotSim, ok := s.LoadSim(pk, "sim")
	if !ok {
		t.Fatal("sim: miss after save")
	}
	if !sameSim(gotSim, simRes) {
		t.Errorf("sim round trip changed values: %+v vs %+v", gotSim, simRes)
	}
	if gotSim.Mem != nil {
		t.Error("sim: memory image must not be persisted")
	}
	if !bytes.Equal(store.EncodeSim(gotSim), store.EncodeSim(simRes)) {
		t.Error("sim: re-encoding differs")
	}

	if err := s.SaveProfile(pk, "profile", prof); err != nil {
		t.Fatal(err)
	}
	gotProf, ok := s.LoadProfile(pk, "profile")
	if !ok {
		t.Fatal("profile: miss after save")
	}
	if !reflect.DeepEqual(gotProf.ByObject, prof.ByObject) {
		t.Errorf("profile objects differ: %+v vs %+v", gotProf.ByObject, prof.ByObject)
	}
	if gotProf.StackAccesses != prof.StackAccesses || gotProf.MinStackAddr != prof.MinStackAddr {
		t.Error("profile stack fields differ")
	}
	if gotProf.ObservedStackDepth() != prof.ObservedStackDepth() {
		t.Error("profile stack depth differs")
	}
	if gotProf.Result == nil || !sameSim(gotProf.Result, prof.Result) {
		t.Error("profile result scalars differ")
	}
	if !bytes.Equal(store.EncodeProfile(gotProf), store.EncodeProfile(prof)) {
		t.Error("profile: re-encoding differs")
	}

	for name, res := range map[string]*wcet.Result{"witness": wres, "cache": cres} {
		if err := s.SaveWCET(pk, name, res); err != nil {
			t.Fatal(err)
		}
		got, ok := s.LoadWCET(pk, name)
		if !ok {
			t.Fatalf("wcet %s: miss after save", name)
		}
		if !reflect.DeepEqual(got, res) {
			t.Errorf("wcet %s round trip changed values", name)
		}
		if !bytes.Equal(store.EncodeWCET(got), store.EncodeWCET(res)) {
			t.Errorf("wcet %s: re-encoding differs", name)
		}
	}
}

// TestDeterministicEncoding: encoding is map-order independent — repeated
// encodings of one artifact must be bit-identical (the property that lets
// two processes write identical files for one key).
func TestDeterministicEncoding(t *testing.T) {
	_, simRes, prof, wres, _ := artifacts(t)
	for i := 0; i < 3; i++ {
		if !bytes.Equal(store.EncodeSim(simRes), store.EncodeSim(simRes)) {
			t.Fatal("sim encoding not deterministic")
		}
		if !bytes.Equal(store.EncodeProfile(prof), store.EncodeProfile(prof)) {
			t.Fatal("profile encoding not deterministic")
		}
		if !bytes.Equal(store.EncodeWCET(wres), store.EncodeWCET(wres)) {
			t.Fatal("wcet encoding not deterministic")
		}
	}
}

// entryFile locates the single entry file in a store directory.
func entryFile(t *testing.T, s *store.Store) string {
	t.Helper()
	entries, err := s.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("want exactly 1 entry, have %d", len(entries))
	}
	return filepath.Join(s.Dir(), entries[0].Name[:2], entries[0].Name+".art")
}

// TestCorruptionIsAMiss: a flipped payload byte, a truncated file and a
// wrong magic must all read as a miss, and the broken entry must be
// removed so the slot heals on the next write.
func TestCorruptionIsAMiss(t *testing.T) {
	prog, simRes, _, _, _ := artifacts(t)
	pk := store.ProgramKey(prog)

	corruptions := map[string]func([]byte) []byte{
		"payload bit flip": func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b },
		"truncation":       func(b []byte) []byte { return b[:len(b)-4] },
		"header truncated": func(b []byte) []byte { return b[:10] },
		"bad magic":        func(b []byte) []byte { copy(b, "NOPE"); return b },
		"empty file":       func([]byte) []byte { return nil },
	}
	for name, corrupt := range corruptions {
		s := open(t)
		if _, ok := s.LoadSim(pk, "sim"); ok {
			t.Fatalf("%s: hit on empty store", name)
		}
		if err := s.SaveSim(pk, "sim", simRes); err != nil {
			t.Fatal(err)
		}
		path := entryFile(t, s)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.LoadSim(pk, "sim"); ok {
			t.Errorf("%s: corrupt entry served as a hit", name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: corrupt entry not removed", name)
		}
		// The slot heals: rewrite and read back.
		if err := s.SaveSim(pk, "sim", simRes); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.LoadSim(pk, "sim"); !ok || !sameSim(got, simRes) {
			t.Errorf("%s: rewrite after corruption did not heal", name)
		}
	}
}

// TestConcurrentSharedDir: two handles on one directory (two "processes")
// saving and loading the same artifacts concurrently must stay race-clean
// and leave a file bit-identical to a fresh encoding.
func TestConcurrentSharedDir(t *testing.T) {
	prog, simRes, _, wres, _ := artifacts(t)
	dir := t.TempDir()
	s1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	pk := store.ProgramKey(prog)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		s := s1
		if i%2 == 1 {
			s = s2
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if err := s.SaveSim(pk, "sim", simRes); err != nil {
					t.Error(err)
				}
				if got, ok := s.LoadSim(pk, "sim"); ok && !sameSim(got, simRes) {
					t.Error("concurrent load returned different values")
				}
				if err := s.SaveWCET(pk, "wcet", wres); err != nil {
					t.Error(err)
				}
				if got, ok := s.LoadWCET(pk, "wcet"); ok && got.WCET != wres.WCET {
					t.Error("concurrent load returned a different bound")
				}
			}
		}()
	}
	wg.Wait()
	// Both writers were writing identical bytes; whichever rename won,
	// the surviving files must verify and agree bit-for-bit with a fresh
	// encoding.
	entries, err := s1.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("want 2 entries after the race, have %d", len(entries))
	}
	for _, e := range entries {
		if e.Corrupt {
			t.Errorf("entry %s corrupt after concurrent writes", e.Name)
		}
	}
	if got, ok := s1.LoadSim(pk, "sim"); !ok || !bytes.Equal(store.EncodeSim(got), store.EncodeSim(simRes)) {
		t.Error("surviving sim entry does not agree bit-for-bit")
	}
	if got, ok := s2.LoadWCET(pk, "wcet"); !ok || !bytes.Equal(store.EncodeWCET(got), store.EncodeWCET(wres)) {
		t.Error("surviving wcet entry does not agree bit-for-bit")
	}
}

// TestIndexSweepGC: the index lists entries with kinds and flags
// corruption; GCPolicy under the zero policy sweeps out corrupt entries
// and stale temporaries, and with MaxAge additionally expires old entries.
func TestIndexSweepGC(t *testing.T) {
	prog, simRes, prof, wres, _ := artifacts(t)
	s := open(t)
	pk := store.ProgramKey(prog)
	if err := s.SaveSim(pk, "sim", simRes); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveProfile(pk, "profile", prof); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveWCET(pk, "wcet", wres); err != nil {
		t.Fatal(err)
	}
	entries, err := s.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("want 3 entries, have %d", len(entries))
	}
	kinds := map[store.Kind]int{}
	for _, e := range entries {
		if e.Corrupt {
			t.Errorf("entry %s unexpectedly corrupt", e.Name)
		}
		kinds[e.Kind]++
	}
	if kinds[store.KindSim] != 1 || kinds[store.KindProfile] != 1 || kinds[store.KindWCET] != 1 {
		t.Errorf("kind census wrong: %v", kinds)
	}
	var wantBytes int64
	for _, e := range entries {
		wantBytes += e.Size
	}
	n, bytes, err := s.Usage()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || bytes != wantBytes {
		t.Errorf("usage reports %d entries / %d bytes, want 3 / %d", n, bytes, wantBytes)
	}

	// Corrupt one entry and plant a stale temp file.
	victim := filepath.Join(s.Dir(), entries[0].Name[:2], entries[0].Name+".art")
	if err := os.WriteFile(victim, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(s.Dir(), "tmp-stale")
	if err := os.WriteFile(stale, []byte("half-written"), 0o600); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	entries, err = s.Index()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := 0
	for _, e := range entries {
		if e.Corrupt {
			corrupt++
		}
	}
	if corrupt != 1 {
		t.Errorf("index flags %d corrupt entries, want 1", corrupt)
	}
	removed, _, err := s.GCPolicy(time.Now(), store.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Errorf("sweep removed %d files, want 2 (corrupt entry + stale temp)", removed)
	}
	entries, err = s.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("want 2 entries after sweep, have %d", len(entries))
	}

	// An age cutoff in the future expires everything that remains.
	removed, _, err = s.GCPolicy(time.Now().Add(2*time.Hour), store.Policy{MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Errorf("gc removed %d entries, want 2", removed)
	}
	entries, err = s.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("store not empty after gc: %d entries", len(entries))
	}
}

// TestRetiredKindIsCorrupt: an entry of kind 5, which earlier builds wrote
// for persisted solver state, carries a valid header and checksum yet reads
// as corrupt, so GCPolicy reclaims it and leaves current kinds alone.
func TestRetiredKindIsCorrupt(t *testing.T) {
	prog, simRes, prof, _, _ := artifacts(t)
	s := open(t)
	pk := store.ProgramKey(prog)
	if err := s.SaveSim(pk, "sim", simRes); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, s)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The header's kind field follows the magic and the format version;
	// the checksum covers the payload only, so it stays valid.
	binary.LittleEndian.PutUint16(raw[6:8], 5)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveProfile(pk, "profile", prof); err != nil {
		t.Fatal(err)
	}
	entries, err := s.Index()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		retired := filepath.Join(s.Dir(), e.Name[:2], e.Name+".art") == path
		if e.Corrupt != retired {
			t.Errorf("entry %s: corrupt %v, want %v", e.Name, e.Corrupt, retired)
		}
	}
	if _, err := store.ParseKind("solverstate"); err == nil {
		t.Error("retired kind name still parses")
	}
	removed, _, err := s.GCPolicy(time.Now(), store.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Errorf("sweep removed %d files, want 1", removed)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("kind-5 entry survived the sweep")
	}
	if _, ok := s.LoadProfile(pk, "profile"); !ok {
		t.Error("sweep removed the profile entry")
	}
}

// TestProgramKeySensitivity: the program hash must be reproducible across
// compilations and must change when any content influencing placement or
// analysis changes.
func TestProgramKeySensitivity(t *testing.T) {
	p1, err := cc.Compile(testProgram)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cc.Compile(testProgram)
	if err != nil {
		t.Fatal(err)
	}
	if store.ProgramKey(p1) != store.ProgramKey(p2) {
		t.Fatal("recompiling the same source changed the program key")
	}

	base := store.ProgramKey(p2)
	// The placement-independence mark changes how a result is computed,
	// never the result, so it leaves the key alone.
	p2.PlacementIndependent = !p2.PlacementIndependent
	if store.ProgramKey(p2) != base {
		t.Error("the placement-independence mark changed the key")
	}
	p2.PlacementIndependent = !p2.PlacementIndependent
	p2.Objects[0].Data[0] ^= 0xFF
	if store.ProgramKey(p2) == base {
		t.Error("flipping an object byte did not change the key")
	}
	p2.Objects[0].Data[0] ^= 0xFF
	if store.ProgramKey(p2) != base {
		t.Fatal("undoing the flip did not restore the key")
	}
	p2.Objects[0], p2.Objects[1] = p2.Objects[1], p2.Objects[0]
	if store.ProgramKey(p2) == base {
		t.Error("reordering objects (which moves placements) did not change the key")
	}
}

// TestAllocRoundTrip: allocation solves round-trip exactly, including the
// unit partition and the float benefit.
func TestAllocRoundTrip(t *testing.T) {
	s := open(t)
	in := &store.AllocArtifact{
		InSPM:   map[string]bool{"f": true, "g#hot": true},
		Benefit: 12345.678,
		Used:    420,
		Splits:  []obj.Region{{Func: "g", Start: 10, End: 96}},
	}
	if err := s.SaveAlloc("prog", "alloc|k|cap=512", in); err != nil {
		t.Fatal(err)
	}
	out, ok := s.LoadAlloc("prog", "alloc|k|cap=512")
	if !ok {
		t.Fatal("saved allocation not found")
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\nin  %+v\nout %+v", in, out)
	}
	if _, ok := s.LoadAlloc("prog", "alloc|k|cap=1024"); ok {
		t.Error("different capacity key served the same solve")
	}
	// Re-encoding is deterministic (concurrent writers produce identical
	// files).
	if !bytes.Equal(store.EncodeAlloc(in), store.EncodeAlloc(out)) {
		t.Error("re-encoding differs")
	}
}

// TestGCPolicy: age expiry first, then oldest-first size eviction; fresh
// entries under budget survive.
func TestGCPolicy(t *testing.T) {
	s := open(t)
	save := func(key string) {
		t.Helper()
		if err := s.SaveAlloc("p", key, &store.AllocArtifact{InSPM: map[string]bool{key: true}}); err != nil {
			t.Fatal(err)
		}
	}
	touch := func(key string, age time.Duration) {
		t.Helper()
		// Reach into the layout the same way Index does: find the entry by
		// elimination (each save uses a unique key, so count bookkeeping is
		// enough for this test's purposes).
		entries, err := s.Index()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			path := filepath.Join(s.Dir(), e.Name[:2], e.Name+".art")
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if time.Since(info.ModTime()) < time.Second {
				when := time.Now().Add(-age)
				if err := os.Chtimes(path, when, when); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
	}
	save("old")
	touch("old", 48*time.Hour)
	save("fresh-a")
	save("fresh-b")

	removed, freed, err := s.GCPolicy(time.Now(), store.Policy{MaxAge: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || freed <= 0 {
		t.Errorf("age GC removed %d files (%d bytes), want exactly the old one", removed, freed)
	}
	entries, _, err := s.Usage()
	if err != nil {
		t.Fatal(err)
	}
	if entries != 2 {
		t.Fatalf("%d entries after age GC, want 2", entries)
	}

	// Size eviction: budget of one entry's bytes keeps exactly one.
	es, err := s.Index()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.GCPolicy(time.Now(), store.Policy{MaxBytes: es[0].Size}); err != nil {
		t.Fatal(err)
	}
	if entries, _, err = s.Usage(); err != nil || entries != 1 {
		t.Fatalf("%d entries after size GC (err %v), want 1", entries, err)
	}

	// A generous budget removes nothing.
	if removed, _, err = s.GCPolicy(time.Now(), store.Policy{MaxBytes: 1 << 30, MaxAge: 24 * time.Hour}); err != nil || removed != 0 {
		t.Fatalf("no-op GC removed %d (err %v)", removed, err)
	}
}

// TestProfileWidthsRoundTrip: the per-width data access counts survive the
// profile codec.
func TestProfileWidthsRoundTrip(t *testing.T) {
	_, _, prof, _, _ := artifacts(t)
	if prof.ByObject["a"].Data[2] == 0 {
		t.Fatal("profile recorded no word accesses to a")
	}
	got, err := store.DecodeProfile(store.EncodeProfile(prof))
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range prof.ByObject {
		if got.ByObject[name].Data != a.Data {
			t.Errorf("%s: widths %v decoded as %v", name, a.Data, got.ByObject[name].Data)
		}
	}
}

// TestProfileOldOrTruncatedIsMiss: a profile payload in the previous
// ("profile/v2") encoding, or cut short anywhere, decodes as an error
// (which LoadProfile reports as a miss), never as a profile or a panic.
func TestProfileOldOrTruncatedIsMiss(t *testing.T) {
	_, _, prof, _, _ := artifacts(t)
	cur := store.EncodeProfile(prof)
	for n := 0; n < len(cur); n++ {
		if _, err := store.DecodeProfile(cur[:n]); err == nil {
			t.Fatalf("profile truncated to %d of %d bytes decoded", n, len(cur))
		}
	}
	if _, err := store.DecodeProfile(v2ProfileEncoding(prof)); err == nil {
		t.Error("profile in the profile/v2 encoding decoded")
	}
}

// v2ProfileEncoding encodes prof in the layout stored under "profile/v2":
// per object its name, four counters (fetches, literal reads, reads,
// writes) and the three per-width data counts, then the stack fields and
// the run's scalars. The kind split is not recoverable from an access
// vector, so every data access is written as a read; only the layout
// matters here.
func v2ProfileEncoding(p *sim.Profile) []byte {
	var b []byte
	u32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	names := make([]string, 0, len(p.ByObject))
	for name := range p.ByObject {
		names = append(names, name)
	}
	sort.Strings(names)
	u32(uint32(len(names)))
	for _, name := range names {
		a := p.ByObject[name]
		u32(uint32(len(name)))
		b = append(b, name...)
		u64(a.Fetches)
		u64(0)
		u64(a.Total() - a.Fetches)
		u64(0)
		for _, n := range a.Data {
			u64(n)
		}
	}
	u64(p.StackAccesses)
	u32(p.MinStackAddr)
	b = append(b, 1)
	u64(p.Result.Cycles)
	u64(p.Result.Instrs)
	u64(p.Result.CacheHits)
	u64(p.Result.CacheMisses)
	u32(p.Result.ExitCode)
	return b
}
