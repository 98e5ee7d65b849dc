package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{Size: 64}, {Size: 128}, {Size: 8192},
		{Size: 1024, Assoc: 2}, {Size: 1024, Assoc: 4, LineSize: 32},
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
	bad := []Config{
		{Size: 0}, {Size: 96}, {Size: 64, LineSize: 12},
		{Size: 64, Assoc: -1}, {Size: 16, Assoc: 2, LineSize: 16},
		{Size: 16, LineSize: 32},
		// Line size × assoc wraps to zero in 32 or 64 bits.
		{Size: 1024, Assoc: 1 << 28}, {Size: 1024, Assoc: 1 << 32},
		{Size: 1 << 31, LineSize: 1 << 31, Assoc: 1 << 33},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", cfg)
		}
	}
}

func TestDirectMappedHitMiss(t *testing.T) {
	c := mustNew(t, Config{Size: 64}) // 4 lines of 16 bytes
	if c.Read(0x1000) {
		t.Fatal("cold read hit")
	}
	if !c.Read(0x1000) {
		t.Fatal("warm read missed")
	}
	// Same line, different word: hit.
	if !c.Read(0x100C) {
		t.Fatal("same-line read missed")
	}
	// Conflicting line (same index, different tag): 0x1000 + 64.
	if c.Read(0x1040) {
		t.Fatal("conflict read hit")
	}
	// Original line was evicted.
	if c.Read(0x1000) {
		t.Fatal("evicted read hit")
	}
	if c.Hits != 2 || c.Misses != 3 {
		t.Fatalf("hits=%d misses=%d, want 2, 3", c.Hits, c.Misses)
	}
}

func TestTwoWayLRUAvoidsConflict(t *testing.T) {
	dm := mustNew(t, Config{Size: 64, Assoc: 1})
	sa := mustNew(t, Config{Size: 64, Assoc: 2})
	// Two addresses that conflict in the direct-mapped cache. With 2-way
	// (2 sets of 2 ways), line index = (addr/16) % 2: choose both even.
	a, b := uint32(0x000), uint32(0x040)
	dm.Read(a)
	dm.Read(b)
	sa.Read(a)
	sa.Read(b)
	// Re-access a: direct-mapped misses (b evicted it), 2-way hits.
	if dm.Read(a) {
		t.Error("direct-mapped re-read hit, want miss")
	}
	if !sa.Read(a) {
		t.Error("2-way re-read missed, want hit")
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way, 2 sets; fill set 0 with lines A and B, touch A, insert C:
	// B (least recently used) must be evicted.
	c := mustNew(t, Config{Size: 64, Assoc: 2})
	A, B, C := uint32(0x000), uint32(0x040), uint32(0x080)
	c.Read(A)
	c.Read(B)
	c.Read(A) // A most recent
	c.Read(C) // evicts B
	if !c.Contains(A) {
		t.Error("A should still be cached")
	}
	if c.Contains(B) {
		t.Error("B should have been evicted (LRU)")
	}
	if !c.Contains(C) {
		t.Error("C should be cached")
	}
}

// TestWriteHitRefreshesLRU: a write hit makes its line the set's most
// recently used, so the next fill evicts the other line.
func TestWriteHitRefreshesLRU(t *testing.T) {
	c := mustNew(t, Config{Size: 64, Assoc: 2})
	A, B, C := uint32(0x000), uint32(0x040), uint32(0x080)
	c.Read(A)
	c.Read(B)
	c.Write(A) // A most recent
	c.Read(C)  // evicts B
	if !c.Contains(A) || c.Contains(B) || !c.Contains(C) {
		t.Errorf("after a write hit on A: A %v, B %v, C %v; want A and C cached",
			c.Contains(A), c.Contains(B), c.Contains(C))
	}
}

func TestWriteThroughNoAllocate(t *testing.T) {
	c := mustNew(t, Config{Size: 64})
	c.Write(0x2000)
	if c.Contains(0x2000) {
		t.Fatal("write must not allocate")
	}
	// A write to a cached line keeps it valid.
	c.Read(0x2000)
	c.Write(0x2000)
	if !c.Contains(0x2000) {
		t.Fatal("write-through must keep the line valid")
	}
}

// TestPropertyRepeatAccessAlwaysHits: any read immediately repeated is a hit,
// for arbitrary cache geometry and address.
func TestPropertyRepeatAccessAlwaysHits(t *testing.T) {
	f := func(sizeExp uint8, assocExp uint8, addr uint32) bool {
		size := uint32(64) << (sizeExp % 8) // 64 B .. 8 KB
		assoc := 1 << (assocExp % 3)        // 1, 2, 4
		c, err := New(Config{Size: size, Assoc: assoc})
		if err != nil {
			return true
		}
		c.Read(addr)
		return c.Read(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWorkingSetFitsAllHitsSecondPass: if the working set fits, a
// second sequential pass over it hits on every access.
func TestPropertyWorkingSetFitsAllHitsSecondPass(t *testing.T) {
	f := func(sizeExp uint8, base uint32) bool {
		size := uint32(64) << (sizeExp % 8)
		c, err := New(Config{Size: size})
		if err != nil {
			return true
		}
		base &^= size - 1 // aligned working set of exactly the cache size
		for a := base; a < base+size; a += 4 {
			c.Read(a)
		}
		before := c.Misses
		for a := base; a < base+size; a += 4 {
			c.Read(a)
		}
		return c.Misses == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestNumSets(t *testing.T) {
	if n := (Config{Size: 8192}).NumSets(); n != 512 {
		t.Errorf("8K direct mapped: %d sets, want 512", n)
	}
	if n := (Config{Size: 1024, Assoc: 4}).NumSets(); n != 16 {
		t.Errorf("1K 4-way: %d sets, want 16", n)
	}
	if n := (Config{Size: 1024, Assoc: 1 << 28}).NumSets(); n != 0 {
		t.Errorf("1K with 2^28 ways: %d sets, want 0", n)
	}
}

// TestSetAliasingPinned pins hits, misses and final residency for one
// access sequence under three 256-byte organisations. A..D are 256 bytes
// apart and E is 1 MB further on, so all five alias to set 0 in every
// organisation; Y lands in set 1.
func TestSetAliasingPinned(t *testing.T) {
	const (
		A = 0x0010_0000
		B = A + 0x100
		C = A + 0x200
		D = A + 0x300
		E = A + 0x10_0000
		Y = A + 0x10
	)
	seq := []uint32{A, A + 8, B, A, C, B, A, Y, D, A, Y, E, B}
	cases := []struct {
		assoc        int
		hits, misses uint64
		resident     []uint32
		evicted      []uint32
	}{
		{1, 2, 11, []uint32{B, Y}, []uint32{A, C, D, E}},
		{2, 4, 9, []uint32{B, E, Y}, []uint32{A, C, D}},
		{4, 7, 6, []uint32{A, B, D, E, Y}, []uint32{C}},
	}
	for _, tc := range cases {
		c := mustNew(t, Config{Size: 256, Assoc: tc.assoc})
		for _, addr := range seq {
			c.Read(addr)
		}
		if c.Hits != tc.hits || c.Misses != tc.misses {
			t.Errorf("%d-way: hits=%d misses=%d, want %d, %d", tc.assoc, c.Hits, c.Misses, tc.hits, tc.misses)
		}
		for _, addr := range tc.resident {
			if !c.Contains(addr) {
				t.Errorf("%d-way: %#x evicted, want resident", tc.assoc, addr)
			}
		}
		for _, addr := range tc.evicted {
			if c.Contains(addr) {
				t.Errorf("%d-way: %#x resident, want evicted", tc.assoc, addr)
			}
		}
	}
}
