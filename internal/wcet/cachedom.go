package wcet

import (
	"math/bits"

	"repro/internal/cache"
)

// mustState is the abstract cache state of the MUST analysis (Ferdinand's
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
// so cloning a state is a single allocation and copy. A way holds a 32-bit
// tag and the geometry is fixed at construction as shifts and a mask, so an
// access costs what it touches — one set, or one contiguous run of sets for
// a range — never a walk over the whole capacity or a division.
type mustState struct {
	assoc int
	nsets int
	// An address splits into tag | set | line offset: Validate guarantees
	// power-of-two sizes and line sizes, so the set count is one too.
	lineShift, setShift, setMask uint32
	// data[s*assoc+age] is the tag guaranteed to be cached in set s with at
	// most that age, or tagUnknown.
	data []uint32
}

// tagUnknown marks a way with no guaranteed content. Real tags are an
// address shifted right by at least two bits, so they never reach it.
const tagUnknown = ^uint32(0)

// newMustTop returns the analysis entry state: a cold cache guarantees
// nothing.
func newMustTop(cfg cache.Config) *mustState {
	s := newMustState(cfg)
	fillUnknown(s.data)
	return s
}

// newMustState returns a state of cfg's geometry whose ways are still to be
// filled.
func newMustState(cfg cache.Config) *mustState {
	cfg = cfg.WithDefaults()
	n := cfg.NumSets()
	return &mustState{
		assoc:     cfg.Assoc,
		nsets:     int(n),
		lineShift: uint32(bits.TrailingZeros32(cfg.LineSize)),
		setShift:  uint32(bits.TrailingZeros32(n)),
		setMask:   n - 1,
		data:      make([]uint32, int(n)*cfg.Assoc),
	}
}

// fillUnknown sets every way of ws to tagUnknown.
func fillUnknown(ws []uint32) {
	for i := range ws {
		ws[i] = tagUnknown
	}
}

// set returns the ways of set i (a view into the flat backing).
func (s *mustState) set(i int) []uint32 {
	return s.data[i*s.assoc : (i+1)*s.assoc]
}

func (s *mustState) clone() *mustState {
	t := *s
	t.data = make([]uint32, len(s.data))
	copy(t.data, s.data)
	return &t
}

// classifyRead reports whether a read of addr is guaranteed to hit, and
// applies the LRU MUST update: the accessed block moves to age 0; blocks
// younger than its previous age grow older by one.
func (s *mustState) classifyRead(addr uint32) bool {
	// & 31 lets the compiler drop its fixup for shifts of 32 or more.
	line := addr >> (s.lineShift & 31)
	set, tag := int(line&s.setMask), line>>(s.setShift&31)
	if s.assoc == 1 {
		hit := s.data[set] == tag
		s.data[set] = tag
		return hit
	}
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

// clobberRange applies one read at an unknown address within [lo, hi):
// every set the range can touch ages by one access.
func (s *mustState) clobberRange(lo, hi uint32) {
	if hi <= lo {
		return
	}
	first, last := lo>>(s.lineShift&31), (hi-1)>>(s.lineShift&31)
	if last-first+1 >= uint32(s.nsets) {
		s.ageSets(0, s.nsets)
		return
	}
	from, to := int(first&s.setMask), int(last&s.setMask)
	if from <= to {
		s.ageSets(from, to+1)
		return
	}
	s.ageSets(from, s.nsets) // the run wraps past the last set
	s.ageSets(0, to+1)
}

// ageSets ages every guarantee in sets [from, to) by one unknown access.
// The sets are contiguous in the backing, so one copy shifts every way one
// place older; each set's age-0 way, which the copy filled with the
// previous set's oldest way, then becomes unknown.
func (s *mustState) ageSets(from, to int) {
	a := s.assoc
	if a == 1 {
		fillUnknown(s.data[from:to])
		return
	}
	run := s.data[from*a : to*a]
	copy(run[1:], run[:len(run)-1])
	for i := 0; i < len(run); i += a {
		run[i] = tagUnknown
	}
}

// join computes the pointwise MUST meet with o in place and reports whether
// s changed: a block survives only if guaranteed in both states, with its
// maximal age; colliding ages resolve pessimistically (toward older). The
// merge scratch lives on the stack for every realistic associativity, so a
// join allocates nothing.
func (s *mustState) join(o *mustState) bool {
	changed := false
	if s.assoc == 1 {
		// One way per set: a guarantee survives only if both states hold it.
		b := o.data[:len(s.data)]
		for i, t := range s.data {
			if t != b[i] && t != tagUnknown {
				s.data[i] = tagUnknown
				changed = true
			}
		}
		return changed
	}
	var buf [16]uint32
	var merged []uint32
	if s.assoc <= len(buf) {
		merged = buf[:s.assoc]
	} else {
		merged = make([]uint32, s.assoc)
	}
	// One elementwise pass finds the sets that differ; the meet of a set
	// with itself is the set, so only those run the merge.
	sd, od := s.data, o.data[:len(s.data)]
	for i := 0; i < len(sd); i++ {
		if sd[i] == od[i] {
			continue
		}
		lo := i - i%s.assoc
		i = lo + s.assoc - 1
		a, b := sd[lo:i+1], od[lo:i+1]
		fillUnknown(merged)
		// Collect survivors with max age, in a-age order (younger first),
		// placing each at the first free slot at or after its max age; a
		// block pushed past the last way loses its guarantee.
		for ai, tag := range a {
			if tag == tagUnknown {
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
			for j := max(ai, bi); j < len(merged); j++ {
				if merged[j] == tagUnknown {
					merged[j] = tag
					break
				}
			}
		}
		for j := range a {
			if a[j] != merged[j] {
				changed = true
			}
			a[j] = merged[j]
		}
	}
	return changed
}

// equalWays reports whether two equally long way lists are identical.
func equalWays(a, b []uint32) bool {
	b = b[:len(a)]
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// equal reports deep equality.
func (s *mustState) equal(o *mustState) bool {
	return equalWays(s.data, o.data)
}

// statePool recycles mustState values of one cache geometry. The MUST
// fixed point and the cost walks need one scratch state per step; taking
// it from the pool makes the steady state allocation-free.
type statePool struct {
	cfg  cache.Config
	free []*mustState
}

func newStatePool(cfg cache.Config) *statePool {
	return &statePool{cfg: cfg.WithDefaults()}
}

func (p *statePool) take() *mustState {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	return newMustState(p.cfg)
}

// top returns a pooled cold state (no guarantees).
func (p *statePool) top() *mustState {
	s := p.take()
	fillUnknown(s.data)
	return s
}

// cloneOf returns a pooled copy of src.
func (p *statePool) cloneOf(src *mustState) *mustState {
	s := p.take()
	copy(s.data, src.data)
	return s
}

// put returns a state to the pool; nil is ignored.
func (p *statePool) put(s *mustState) {
	if s != nil {
		p.free = append(p.free, s)
	}
}
