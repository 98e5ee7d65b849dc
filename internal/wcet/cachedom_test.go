package wcet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cache"
)

// TestMustSoundnessAgainstConcreteCache is the key property of the MUST
// domain: starting cold and applying any sequence of reads, whenever the
// abstract state classifies a read as a guaranteed hit, the concrete cache
// (same geometry, LRU) must hit too.
func TestMustSoundnessAgainstConcreteCache(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(sizeExp, assocExp uint8, seq []uint16) bool {
		cfg := cache.Config{
			Size:  uint32(64) << (sizeExp % 6),
			Assoc: 1 << (assocExp % 3),
		}
		cfg = cfg.WithDefaults()
		if cfg.Validate() != nil {
			return true
		}
		concrete, err := cache.New(cfg)
		if err != nil {
			return true
		}
		abstract := newMustTop(cfg)
		for _, a := range seq {
			addr := uint32(a) &^ 3
			mustHit := abstract.classifyRead(cfg, addr)
			concreteHit := concrete.Read(addr)
			if mustHit && !concreteHit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestMustSoundnessWithJoins: join is a lower bound — after joining with
// any other state, remaining guarantees must still be valid for executions
// continuing from *either* branch.
func TestMustSoundnessWithJoins(t *testing.T) {
	cfg := cache.Config{Size: 128, Assoc: 2}.WithDefaults()
	mkState := func(addrs []uint32) *mustState {
		s := newMustTop(cfg)
		for _, a := range addrs {
			s.classifyRead(cfg, a)
		}
		return s
	}
	pathA := []uint32{0x00, 0x40, 0x80}
	pathB := []uint32{0x40, 0x100}
	joined := mkState(pathA)
	joined.join(mkState(pathB))

	// Anything joined-as-guaranteed must hit in concrete caches that
	// followed either path from cold.
	for _, path := range [][]uint32{pathA, pathB} {
		for _, a := range []uint32{0x00, 0x40, 0x80, 0x100, 0x140} {
			concrete, err := cache.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range path {
				concrete.Read(p)
			}
			if joined.clone().classifyRead(cfg, a) && !concrete.Read(a) {
				t.Errorf("joined state guarantees %#x but path %v does not cache it", a, path)
			}
		}
	}
}

func TestMustBasicHitClassification(t *testing.T) {
	cfg := cache.Config{Size: 64}.WithDefaults() // 4 lines direct mapped
	s := newMustTop(cfg)
	if s.classifyRead(cfg, 0x100) {
		t.Fatal("cold read cannot be a guaranteed hit")
	}
	if !s.classifyRead(cfg, 0x100) {
		t.Fatal("repeat read must be a guaranteed hit")
	}
	if !s.classifyRead(cfg, 0x104) {
		t.Fatal("same-line read must hit")
	}
	// Conflicting line evicts the guarantee.
	s.classifyRead(cfg, 0x140)
	if s.classifyRead(cfg, 0x100) {
		t.Fatal("evicted line cannot be guaranteed")
	}
}

func TestMustTwoWayKeepsBothLines(t *testing.T) {
	cfg := cache.Config{Size: 128, Assoc: 2}.WithDefaults()
	s := newMustTop(cfg)
	s.classifyRead(cfg, 0x000)
	s.classifyRead(cfg, 0x040) // same set, second way
	if !s.clone().classifyRead(cfg, 0x000) || !s.clone().classifyRead(cfg, 0x040) {
		t.Fatal("2-way MUST should guarantee both blocks")
	}
	// A third block in the set kills the oldest guarantee only.
	s.classifyRead(cfg, 0x080)
	if s.clone().classifyRead(cfg, 0x000) {
		t.Fatal("oldest block must lose its guarantee")
	}
	if !s.clone().classifyRead(cfg, 0x040) {
		t.Fatal("recently-used block must keep its guarantee")
	}
}

func TestClobberRange(t *testing.T) {
	cfg := cache.Config{Size: 64}.WithDefaults() // 4 lines
	s := newMustTop(cfg)
	for _, a := range []uint32{0x00, 0x10, 0x20, 0x30} {
		s.classifyRead(cfg, a)
	}
	// A one-line range only kills that line's guarantee.
	s.clobberRange(cfg, 0x10, 0x14)
	if s.clone().classifyRead(cfg, 0x10) {
		t.Fatal("clobbered line still guaranteed")
	}
	if !s.clone().classifyRead(cfg, 0x20) {
		t.Fatal("untouched line lost its guarantee")
	}
	// A whole-cache-sized range kills everything.
	s2 := newMustTop(cfg)
	for _, a := range []uint32{0x00, 0x10, 0x20, 0x30} {
		s2.classifyRead(cfg, a)
	}
	s2.clobberRange(cfg, 0x1000, 0x1100)
	for _, a := range []uint32{0x00, 0x10, 0x20, 0x30} {
		if s2.clone().classifyRead(cfg, a) {
			t.Fatalf("line %#x survived a full-range clobber", a)
		}
	}
}

func TestJoinIdempotentAndMonotone(t *testing.T) {
	cfg := cache.Config{Size: 64}.WithDefaults()
	s := newMustTop(cfg)
	s.classifyRead(cfg, 0x00)
	s.classifyRead(cfg, 0x10)
	self := s.clone()
	if self.join(s) {
		t.Fatal("join with self must not change the state")
	}
	if !self.equal(s) {
		t.Fatal("join with self must be identity")
	}
	// Joining with top loses everything.
	top := newMustTop(cfg)
	j := s.clone()
	j.join(top)
	if !j.equal(top) {
		t.Fatal("join with top must be top")
	}
}
