package wcet

import "repro/internal/cache"

// The reference MUST domain: the same aging analysis as mustState in its
// plain form — int64 ways, a division per access (refSetAndTag), a range
// clobber one set at a time and the general O(assoc²) merge for every set
// of a join. TestMustDomainMatchesReference and
// FuzzMustDomainMatchesReference check mustState against it step by step.
// Only tests use it.

// refMustState is the abstract cache state of the MUST analysis (Ferdinand's
// aging domain): for every cache set it tracks an ordered list of tags with
// their maximal possible LRU age; a block with age < associativity is
// *guaranteed* to be cached. Associativity 1 degenerates to the
// direct-mapped domain matching the paper's configuration; higher
// associativities implement the paper's §5 future-work analysis for
// set-associative LRU caches.
//
// The paper's experimental ARM7 cache analysis is MUST-only (no
// persistence, no MAY), which this reproduces.
//
// The backing is one flat array (set s's ways are data[s*assoc:(s+1)*assoc])
// so cloning a state is a single allocation and copy — the fixed-point loop
// and the cost walks clone per step, which made the per-set representation
// the dominant allocator of the whole cache path.
type refMustState struct {
	assoc int
	nsets int
	// data[s*assoc+age] is the tag guaranteed to be cached in set s with at
	// most that age, or refTagUnknown.
	data []int64
}

// refTagUnknown marks a way with no guaranteed content.
const refTagUnknown int64 = -1

// newRefMustTop returns the analysis entry state: a cold cache guarantees
// nothing.
func newRefMustTop(cfg cache.Config) *refMustState {
	cfg = cfg.WithDefaults()
	n := int(cfg.NumSets())
	s := &refMustState{assoc: cfg.Assoc, nsets: n, data: make([]int64, n*cfg.Assoc)}
	for i := range s.data {
		s.data[i] = refTagUnknown
	}
	return s
}

// set returns the ways of set i (a view into the flat backing).
func (s *refMustState) set(i int) []int64 {
	return s.data[i*s.assoc : (i+1)*s.assoc]
}

func (s *refMustState) clone() *refMustState {
	t := &refMustState{assoc: s.assoc, nsets: s.nsets, data: make([]int64, len(s.data))}
	copy(t.data, s.data)
	return t
}

// refSetAndTag splits an address per the cache geometry.
func refSetAndTag(cfg cache.Config, addr uint32) (int, int64) {
	block := addr / cfg.LineSize
	return int(block % cfg.NumSets()), int64(block / cfg.NumSets())
}

// classifyRead reports whether a read of addr is guaranteed to hit, and
// applies the LRU MUST update: the accessed block moves to age 0; blocks
// younger than its previous age grow older by one.
func (s *refMustState) classifyRead(cfg cache.Config, addr uint32) bool {
	set, tag := refSetAndTag(cfg, addr)
	ways := s.set(set)
	hit := false
	pos := len(ways) - 1 // miss: everything ages, the oldest guarantee dies
	for i, t := range ways {
		if t == tag {
			pos, hit = i, true
			break
		}
	}
	copy(ways[1:pos+1], ways[:pos])
	ways[0] = tag
	return hit
}

// clobberSet ages every guarantee in one set by a single unknown access.
func (s *refMustState) clobberSet(set int) {
	ways := s.set(set)
	copy(ways[1:], ways[:len(ways)-1])
	ways[0] = refTagUnknown
}

// clobberRange applies one read at an unknown address within [lo, hi):
// every set the range can touch ages by one access.
func (s *refMustState) clobberRange(cfg cache.Config, lo, hi uint32) {
	if hi <= lo {
		return
	}
	nSets := uint32(s.nsets)
	firstBlock := lo / cfg.LineSize
	lastBlock := (hi - 1) / cfg.LineSize
	if lastBlock-firstBlock+1 >= nSets {
		for i := 0; i < s.nsets; i++ {
			s.clobberSet(i)
		}
		return
	}
	for b := firstBlock; b <= lastBlock; b++ {
		s.clobberSet(int(b % nSets))
	}
}

// join computes the pointwise MUST meet with o in place and reports whether
// s changed: a block survives only if guaranteed in both states, with its
// maximal age; colliding ages resolve pessimistically (toward older). The
// merge scratch lives on the stack for every realistic associativity, so a
// join allocates nothing.
func (s *refMustState) join(o *refMustState) bool {
	var buf [16]int64
	var merged []int64
	if s.assoc <= len(buf) {
		merged = buf[:s.assoc]
	} else {
		merged = make([]int64, s.assoc)
	}
	changed := false
	for si := 0; si < s.nsets; si++ {
		a, b := s.set(si), o.set(si)
		for i := range merged {
			merged[i] = refTagUnknown
		}
		// Collect survivors with max age, in a-age order (younger first),
		// placing each at the first free slot at or after its max age.
		for ai, tag := range a {
			if tag == refTagUnknown {
				continue
			}
			bi := -1
			for j, bt := range b {
				if bt == tag {
					bi = j
					break
				}
			}
			if bi < 0 {
				continue // not guaranteed in both
			}
			age := ai
			if bi > age {
				age = bi
			}
			placed := false
			for j := age; j < len(merged); j++ {
				if merged[j] == refTagUnknown {
					merged[j] = tag
					placed = true
					break
				}
			}
			_ = placed // a block pushed past the last way loses its guarantee
		}
		for i := range a {
			if a[i] != merged[i] {
				changed = true
			}
			a[i] = merged[i]
		}
	}
	return changed
}

// equal reports deep equality (used in tests).
func (s *refMustState) equal(o *refMustState) bool {
	for i := range s.data {
		if s.data[i] != o.data[i] {
			return false
		}
	}
	return true
}
