package wcet

import (
	"encoding/binary"
	"fmt"
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
			mustHit := abstract.classifyRead(addr)
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
			s.classifyRead(a)
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
			if joined.clone().classifyRead(a) && !concrete.Read(a) {
				t.Errorf("joined state guarantees %#x but path %v does not cache it", a, path)
			}
		}
	}
}

func TestMustBasicHitClassification(t *testing.T) {
	cfg := cache.Config{Size: 64}.WithDefaults() // 4 lines direct mapped
	s := newMustTop(cfg)
	if s.classifyRead(0x100) {
		t.Fatal("cold read cannot be a guaranteed hit")
	}
	if !s.classifyRead(0x100) {
		t.Fatal("repeat read must be a guaranteed hit")
	}
	if !s.classifyRead(0x104) {
		t.Fatal("same-line read must hit")
	}
	// Conflicting line evicts the guarantee.
	s.classifyRead(0x140)
	if s.classifyRead(0x100) {
		t.Fatal("evicted line cannot be guaranteed")
	}
}

func TestMustTwoWayKeepsBothLines(t *testing.T) {
	cfg := cache.Config{Size: 128, Assoc: 2}.WithDefaults()
	s := newMustTop(cfg)
	s.classifyRead(0x000)
	s.classifyRead(0x040) // same set, second way
	if !s.clone().classifyRead(0x000) || !s.clone().classifyRead(0x040) {
		t.Fatal("2-way MUST should guarantee both blocks")
	}
	// A third block in the set kills the oldest guarantee only.
	s.classifyRead(0x080)
	if s.clone().classifyRead(0x000) {
		t.Fatal("oldest block must lose its guarantee")
	}
	if !s.clone().classifyRead(0x040) {
		t.Fatal("recently-used block must keep its guarantee")
	}
}

func TestClobberRange(t *testing.T) {
	cfg := cache.Config{Size: 64}.WithDefaults() // 4 lines
	s := newMustTop(cfg)
	for _, a := range []uint32{0x00, 0x10, 0x20, 0x30} {
		s.classifyRead(a)
	}
	// A one-line range only kills that line's guarantee.
	s.clobberRange(0x10, 0x14)
	if s.clone().classifyRead(0x10) {
		t.Fatal("clobbered line still guaranteed")
	}
	if !s.clone().classifyRead(0x20) {
		t.Fatal("untouched line lost its guarantee")
	}
	// A whole-cache-sized range kills everything.
	s2 := newMustTop(cfg)
	for _, a := range []uint32{0x00, 0x10, 0x20, 0x30} {
		s2.classifyRead(a)
	}
	s2.clobberRange(0x1000, 0x1100)
	for _, a := range []uint32{0x00, 0x10, 0x20, 0x30} {
		if s2.clone().classifyRead(a) {
			t.Fatalf("line %#x survived a full-range clobber", a)
		}
	}
}

func TestJoinIdempotentAndMonotone(t *testing.T) {
	cfg := cache.Config{Size: 64}.WithDefaults()
	s := newMustTop(cfg)
	s.classifyRead(0x00)
	s.classifyRead(0x10)
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

// mustSlots is the number of abstract states a domain check juggles:
// enough for clones to diverge and be joined back.
const mustSlots = 4

// checkMustDomain replays ops against mustState and the reference domain
// (refdom_test.go) side by side and fails on the first divergence: a hit
// verdict, a join's changed flag or any way of a touched state. ops is a
// byte program; each step's first byte picks the operation and slot and
// the following bytes its operands (a short tail is read as zeros):
//
//	read:    4 address bytes
//	clobber: 4 address bytes (lo) and 1 length byte
//	clone:   the source slot comes from the selector byte
//	join:    the source slot comes from the selector byte
//
// An address with its top bit clear is folded into eight times the
// capacity, so reads conflict; one with it set is used as is, so tags run
// up to the top of the address space. A length byte of 0 is an empty
// range, 1 a reversed one (hi < lo, also empty), and any other b spans
// b/128 of the sets, so 128 and up cover every set; ranges starting near
// the last set wrap.
func checkMustDomain(t *testing.T, cfg cache.Config, ops []byte) {
	t.Helper()
	cfg = cfg.WithDefaults()
	var got [mustSlots]*mustState
	var want [mustSlots]*refMustState
	for i := range got {
		got[i], want[i] = newMustTop(cfg), newRefMustTop(cfg)
	}
	next := func(n int) []byte {
		var b [5]byte
		copy(b[:n], ops)
		ops = ops[min(n, len(ops)):]
		return b[:n]
	}
	addr := func() uint32 {
		a := binary.LittleEndian.Uint32(next(4))
		if a>>31 == 0 {
			a %= 8 * cfg.Size
		}
		return a
	}
	span := cfg.NumSets() * cfg.LineSize
	for step := 0; len(ops) > 0; step++ {
		sel := next(1)[0]
		dst, src := int(sel>>3)%mustSlots, int(sel>>5)%mustSlots
		var what string
		switch sel & 7 {
		case 0, 1, 2, 3: // reads dominate, so states hold guarantees
			a := addr()
			what = fmt.Sprintf("read %#x", a)
			if g, w := got[dst].classifyRead(a), want[dst].classifyRead(cfg, a); g != w {
				t.Fatalf("%v step %d: %s in slot %d: hit %v, reference %v", cfg, step, what, dst, g, w)
			}
		case 4, 5:
			lo, b := addr(), uint32(next(1)[0])
			hi := lo + uint32(uint64(b)*uint64(span)/128)
			switch b {
			case 0:
				hi = lo
			case 1:
				hi = lo - 1
			}
			if hi < lo && b > 1 {
				hi = ^uint32(0) // no wrap past the top of the address space
			}
			what = fmt.Sprintf("clobber [%#x, %#x)", lo, hi)
			got[dst].clobberRange(lo, hi)
			want[dst].clobberRange(cfg, lo, hi)
		case 6:
			what = fmt.Sprintf("clone of slot %d", src)
			got[dst], want[dst] = got[src].clone(), want[src].clone()
		case 7:
			what = fmt.Sprintf("join with slot %d", src)
			if g, w := got[dst].join(got[src]), want[dst].join(want[src]); g != w {
				t.Fatalf("%v step %d: %s into slot %d: changed %v, reference %v", cfg, step, what, dst, g, w)
			}
		}
		if !sameWays(got[dst], want[dst]) {
			t.Fatalf("%v step %d: %s in slot %d: ways %v, reference %v", cfg, step, what, dst, got[dst].data, want[dst].data)
		}
	}
}

// sameWays reports whether a state holds exactly the reference's ways.
func sameWays(s *mustState, r *refMustState) bool {
	if len(s.data) != len(r.data) {
		return false
	}
	for i, w := range r.data {
		if w == refTagUnknown && s.data[i] != tagUnknown || w != refTagUnknown && int64(s.data[i]) != w {
			return false
		}
	}
	return true
}

// mustGeometry decodes one byte into a valid cache geometry: 16 B to 64 KB,
// associativity 1, 2 or 4 and 16- or 32-byte lines, with a size too small
// for its sets grown until valid.
func mustGeometry(g uint8) cache.Config {
	cfg := cache.Config{
		Size:     16 << (g & 15 % 13),
		Assoc:    1 << (g >> 4 & 3 % 3),
		LineSize: 16 << (g >> 6 & 1),
	}
	for cfg.Validate() != nil {
		cfg.Size <<= 1
	}
	return cfg
}

// TestMustDomainMatchesReference runs random programs of reads, range
// clobbers, clones and joins on every geometry of 16 B to 64 KB ×
// associativity {1, 2, 4} × line {16, 32} and checks the optimised domain
// step by step against the reference.
func TestMustDomainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1999))
	ops := make([]byte, 2000)
	for _, line := range []uint32{16, 32} {
		for _, assoc := range []int{1, 2, 4} {
			for size := uint32(16); size <= 64<<10; size <<= 1 {
				cfg := cache.Config{Size: size, Assoc: assoc, LineSize: line}
				if cfg.Validate() != nil {
					continue
				}
				for trial := 0; trial < 4; trial++ {
					rng.Read(ops)
					checkMustDomain(t, cfg, ops)
				}
			}
		}
	}
}

// FuzzMustDomainMatchesReference searches for op programs on which the
// optimised domain and the reference diverge. The checked-in corpus
// (testdata/fuzz/FuzzMustDomainMatchesReference) replays in every plain
// `go test`.
func FuzzMustDomainMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, geometry uint8, ops []byte) {
		checkMustDomain(t, mustGeometry(geometry), ops)
	})
}
