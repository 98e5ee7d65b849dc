package cache

import (
	"fmt"
	"math/bits"
	"slices"
)

// Sweep prices one read stream at several direct-mapped, unified
// capacities of one line size at once.
//
// Such caches are inclusive. A direct-mapped set holds the most recently
// read line that maps to it (writes never allocate, and a direct-mapped
// set has no recency to refresh). With power-of-two set counts, every line
// that maps to a set of a larger capacity maps to the same set of a
// smaller one, so a line held at one capacity is held at every larger one
// (Mattson et al., IBM Syst. J. 9(2), 1970; Hill & Smith, IEEE TC 38(12),
// 1989). A read therefore hits from the smallest capacity holding its
// line upwards, and misses, filling the line, below it.
type Sweep struct {
	lineShift uint32
	// Per distinct capacity, ascending: the set mask and one line number
	// + 1 per set (0 is an empty set).
	masks []uint32
	tags  [][]uint32
	// firstHit[l] counts the reads whose smallest holding capacity is
	// level l; its last element counts the reads no capacity held.
	firstHit []uint64
	// level maps each configuration NewSweep was given to its capacity.
	level []int
}

// NewSweep builds a sweep over cfgs: valid, direct-mapped, unified caches
// that share one line size, in any order and possibly repeated.
func NewSweep(cfgs []Config) (*Sweep, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cache: empty sweep")
	}
	line := cfgs[0].WithDefaults().LineSize
	sizes := make([]uint32, 0, len(cfgs))
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		c = c.WithDefaults()
		if c.Assoc != 1 || c.InstructionOnly || c.LineSize != line {
			return nil, fmt.Errorf("cache: sweep needs direct-mapped unified caches with %d-byte lines, got %+v", line, c)
		}
		sizes = append(sizes, c.Size)
	}
	levels := slices.Clone(sizes)
	slices.Sort(levels)
	levels = slices.Compact(levels)
	s := &Sweep{
		lineShift: uint32(bits.TrailingZeros32(line)),
		masks:     make([]uint32, len(levels)),
		tags:      make([][]uint32, len(levels)),
		firstHit:  make([]uint64, len(levels)+1),
		level:     make([]int, len(cfgs)),
	}
	for l, size := range levels {
		s.masks[l] = size/line - 1
		s.tags[l] = make([]uint32, size/line)
	}
	for i, size := range sizes {
		s.level[i], _ = slices.BinarySearch(levels, size)
	}
	return s, nil
}

// Read performs a read access at every capacity.
func (s *Sweep) Read(addr uint32) {
	line := addr >> (s.lineShift & 31)
	for l, tags := range s.tags {
		t := &tags[line&s.masks[l]]
		if *t == line+1 {
			s.firstHit[l]++
			return
		}
		*t = line + 1
	}
	s.firstHit[len(s.tags)]++
}

// Counts returns the read hits and misses of the i'th configuration given
// to NewSweep.
func (s *Sweep) Counts(i int) (hits, misses uint64) {
	l := s.level[i]
	for k, n := range s.firstHit {
		if k <= l {
			hits += n
		} else {
			misses += n
		}
	}
	return hits, misses
}
