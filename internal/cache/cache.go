// Package cache models the unified cache the paper evaluates: direct
// mapped, four 32-bit words per line, write-through with no write
// allocation. A set-associative LRU mode is provided for the ablation the
// paper lists as future work.
//
// The cache is tag-only (timing model, not storage): main memory is always
// current because writes are write-through. A read hit costs HitCycles; a
// read miss fills the whole line with four 32-bit main-memory reads
// (4 accesses + 12 waitstates, as in the paper) and then delivers the word.
package cache

import (
	"fmt"
	"math/bits"
	"slices"
)

// Timing constants, derived from the paper's Table 1 and cache description.
const (
	// HitCycles is the cost of a read hit.
	HitCycles = 1
	// LineFillCycles is the cost of filling one 16-byte line from main
	// memory: four 32-bit accesses at 4 cycles each (no burst support).
	LineFillCycles = 4 * 4
	// MissCycles is the total cost of a read miss: line fill + delivery.
	MissCycles = LineFillCycles + HitCycles
)

// DefaultLineSize is the paper's line length: four 32-bit words.
const DefaultLineSize = 16

// Config describes a cache organisation.
type Config struct {
	// Size is the total capacity in bytes.
	Size uint32
	// LineSize is the line length in bytes (default 16).
	LineSize uint32
	// Assoc is the associativity; 1 (the paper's configuration) means
	// direct mapped. Replacement within a set is LRU.
	Assoc int
	// InstructionOnly makes this an instruction cache: data accesses
	// bypass it and pay main-memory cost. This is the cache configuration
	// the paper's §5 lists as future work; the unified cache (false) is
	// what the paper evaluates.
	InstructionOnly bool
}

// WithDefaults returns the configuration with the paper's defaults filled
// in: 16-byte lines, direct mapped.
func (c Config) WithDefaults() Config {
	if c.LineSize == 0 {
		c.LineSize = DefaultLineSize
	}
	if c.Assoc == 0 {
		c.Assoc = 1
	}
	return c
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if c.Size == 0 || c.Size&(c.Size-1) != 0 {
		return fmt.Errorf("cache: size %d must be a power of two", c.Size)
	}
	if c.LineSize&(c.LineSize-1) != 0 || c.LineSize < 4 {
		return fmt.Errorf("cache: line size %d must be a power of two >= 4", c.LineSize)
	}
	if c.Assoc < 1 {
		return fmt.Errorf("cache: associativity %d must be >= 1", c.Assoc)
	}
	if n := c.NumSets(); n == 0 || uint64(n)*uint64(c.LineSize)*uint64(c.Assoc) != uint64(c.Size) {
		return fmt.Errorf("cache: size %d not divisible by line size %d x assoc %d",
			c.Size, c.LineSize, c.Assoc)
	}
	return nil
}

// NumSets returns the number of cache sets, or 0 when not even one set of
// Assoc lines fits. The WCET analysis calls it per access, so it keeps to
// one division.
func (c Config) NumSets() uint32 {
	c = c.WithDefaults()
	// With Assoc bounded by Size, line size × assoc cannot wrap in 64 bits.
	set := uint64(c.LineSize) * uint64(c.Assoc)
	if c.Assoc < 1 || uint64(c.Assoc) > uint64(c.Size) || set > uint64(c.Size) {
		return 0
	}
	return c.Size / uint32(set)
}

// Cache is a running cache model.
type Cache struct {
	cfg Config
	// tags holds every set's tags back to back, most recently used first:
	// set s is tags[s*assoc : (s+1)*assoc]. A tag is the address bits above
	// the set with bit 0 set, so the zero value is an invalid line and a
	// direct-mapped lookup is one compare.
	tags  []uint32
	assoc uint32
	// An address splits into tag | set | line offset. Validate guarantees
	// power-of-two sizes, so the set is a shift and a mask.
	lineShift, setMask, tagMask uint32

	Hits   uint64
	Misses uint64
}

// New creates a cache; the configuration must be valid.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	sets := cfg.NumSets()
	return &Cache{
		cfg:       cfg,
		tags:      make([]uint32, sets*uint32(cfg.Assoc)),
		assoc:     uint32(cfg.Assoc),
		lineShift: uint32(bits.TrailingZeros32(cfg.LineSize)),
		setMask:   sets - 1,
		tagMask:   ^(sets*cfg.LineSize - 1),
	}, nil
}

// Config returns the cache configuration (with defaults applied).
func (c *Cache) Config() Config { return c.cfg }

// set returns addr's set, most recently used first, and addr's tag.
func (c *Cache) set(addr uint32) ([]uint32, uint32) {
	// & 31 lets the compiler drop its fixup for shifts of 32 or more.
	base := (addr >> (c.lineShift & 31) & c.setMask) * c.assoc
	return c.tags[base : base+c.assoc], addr&c.tagMask | 1
}

// touch moves tag to the front of set, shifting the more recently used
// tags down one place. Absent, it enters at the front and the least
// recently used tag (or an invalid line) drops off the end. It reports
// whether tag was present.
func touch(set []uint32, tag uint32) bool {
	if set[0] == tag {
		return true
	}
	i := 1
	for i < len(set) && set[i] != tag {
		i++
	}
	hit := i < len(set)
	copy(set[1:], set[:min(i, len(set)-1)])
	set[0] = tag
	return hit
}

// Read performs a read access and reports whether it hit. A miss fills the
// line, evicting the least recently used line of the set.
func (c *Cache) Read(addr uint32) bool {
	if touch(c.set(addr)) {
		c.Hits++
		return true
	}
	c.Misses++
	return false
}

// Write performs a write-through access. No allocation happens on a write
// miss; a write hit makes the line the set's most recently used (the line
// stays valid — memory and cache are updated together). The write itself
// costs what main memory charges for it.
func (c *Cache) Write(addr uint32) {
	if set, tag := c.set(addr); slices.Contains(set, tag) {
		touch(set, tag)
	}
}
