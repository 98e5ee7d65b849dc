package cache

import (
	"fmt"
	"slices"
)

// Sweep prices one access stream under several cache configurations at
// once: a memory system feeds it every main-memory read and write, and
// Counts then reports each configuration's hits and misses.
//
// Direct-mapped, unified caches with the paper's line size share inclusion
// levels, one per capacity. Such caches are inclusive: a direct-mapped set
// holds the most recently read line that maps to it (writes never
// allocate, and a direct-mapped set has no recency to refresh). With
// power-of-two set counts, every line that maps to a set of a larger
// capacity maps to the same set of a smaller one, so a line held at one
// capacity is held at every larger one (Mattson et al., IBM Syst. J. 9(2),
// 1970; Hill & Smith, IEEE TC 38(12), 1989). A read therefore hits from
// the smallest capacity holding its line upwards, and misses, filling the
// line, below it. Every other configuration — set-associative,
// instruction-only or of another line size — runs its own Cache on the
// same stream.
type Sweep struct {
	// levels holds one level per distinct direct-mapped capacity,
	// ascending, and misses counts the reads no capacity held.
	levels []level
	misses uint64
	// caches holds one Cache per configuration the levels cannot price,
	// and cost[j] what main memory charged for the reads caches[j] priced.
	caches []*Cache
	cost   []uint64
	// of maps each configuration NewSweep was given to its level, or to
	// ^j for caches[j].
	of []int
	// mainCycles is what main memory charged for every read fed in.
	mainCycles uint64
}

// level is one direct-mapped capacity of a Sweep.
type level struct {
	// mask selects a line's set; tags holds one line number + 1 per set
	// (0 is an empty set).
	mask uint32
	tags []uint32
	// firstHits counts the reads whose smallest holding capacity this is.
	firstHits uint64
}

// NewSweep builds a sweep over cfgs: valid configurations in any order,
// possibly repeated.
func NewSweep(cfgs []Config) (*Sweep, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cache: empty sweep")
	}
	leveled := func(c Config) bool { return c.Assoc == 1 && !c.InstructionOnly && c.LineSize == DefaultLineSize }
	var sizes []uint32
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if c = c.WithDefaults(); leveled(c) {
			sizes = append(sizes, c.Size)
		}
	}
	slices.Sort(sizes)
	sizes = slices.Compact(sizes)
	s := &Sweep{of: make([]int, len(cfgs))}
	for _, size := range sizes {
		n := size / DefaultLineSize
		s.levels = append(s.levels, level{mask: n - 1, tags: make([]uint32, n)})
	}
	for i, c := range cfgs {
		if c = c.WithDefaults(); leveled(c) {
			s.of[i], _ = slices.BinarySearch(sizes, c.Size)
			continue
		}
		s.of[i] = ^len(s.caches)
		x, _ := New(c)
		s.caches, s.cost = append(s.caches, x), append(s.cost, 0)
	}
	return s, nil
}

// Read performs a main-memory read, a fetch or a data read, under every
// configuration. cost is what main memory charges for it.
func (s *Sweep) Read(addr uint32, fetch bool, cost int) {
	s.mainCycles += uint64(cost)
	for j, c := range s.caches {
		if fetch || !c.cfg.InstructionOnly {
			c.Read(addr)
			s.cost[j] += uint64(cost)
		}
	}
	line := addr / DefaultLineSize
	for i := range s.levels {
		lv := &s.levels[i]
		t := &lv.tags[line&lv.mask]
		if *t == line+1 {
			lv.firstHits++
			return
		}
		*t = line + 1
	}
	s.misses++
}

// Write performs a main-memory data write under every configuration. It
// allocates nothing; it refreshes a set-associative set it hits.
func (s *Sweep) Write(addr uint32) {
	for _, c := range s.caches {
		if !c.cfg.InstructionOnly {
			c.Write(addr)
		}
	}
}

// Counts returns the read hits and misses of the i'th configuration given
// to NewSweep, and what main memory charged for the reads it priced.
func (s *Sweep) Counts(i int) (hits, misses, mainCycles uint64) {
	l := s.of[i]
	if l < 0 {
		c := s.caches[^l]
		return c.Hits, c.Misses, s.cost[^l]
	}
	for k, lv := range s.levels {
		if k <= l {
			hits += lv.firstHits
		} else {
			misses += lv.firstHits
		}
	}
	return hits, misses + s.misses, s.mainCycles
}
