// Package mem models the target memory system of the paper's evaluation
// board (ATMEL AT91EB01): a slow off-chip main memory whose access time
// depends on the access width (Table 1 of the paper) and an optional on-chip
// scratchpad with uniform single-cycle access.
//
// The memory system contains no cache and no hooks. The paper's cache is
// tag-only and write-through, so it contributes timing, not storage: the
// system always charges main-memory cost and feeds every main-memory access
// to an attached cache.Sweep, from whose counts sim reprices the run. The
// functional simulation is thus independent of the cache configuration,
// the property the paper's comparison relies on. For a profile the system
// counts every access per address itself.
package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/cache"
)

// Cycle costs from Table 1 of the paper: a main-memory access takes the
// base cycle plus width-dependent waitstates; the scratchpad always
// answers in a single cycle.
const (
	MainByteCycles = 2 // 1 + 1 waitstate
	MainHalfCycles = 2 // 1 + 1 waitstate
	MainWordCycles = 4 // 1 + 3 waitstates
	SPMCycles      = 1
)

// MainCost returns the main-memory access cost for an access of the given
// width in bytes (Table 1).
func MainCost(width uint8) int {
	switch width {
	case 4:
		return MainWordCycles
	case 1:
		return MainByteCycles
	}
	return MainHalfCycles
}

// Accesses is one memory object's access vector: its halfword instruction
// fetches and its data accesses by width. The profile, the WCET witness
// and the allocation objectives all count accesses in it, and Cycles is
// the one place such counts are priced.
type Accesses struct {
	Fetches uint64
	// Data counts data accesses by width: [0] bytes, [1] halfwords, [2]
	// words.
	Data [3]uint64
}

// Add counts n data accesses of the given width (1, 2 or 4 bytes).
func (a *Accesses) Add(width uint8, n uint64) {
	a.Data[bits.TrailingZeros8(width)] += n
}

// AddScaled adds n times b's counts to a.
func (a *Accesses) AddScaled(b *Accesses, n uint64) {
	a.Fetches += n * b.Fetches
	for i, c := range b.Data {
		a.Data[i] += n * c
	}
}

// Total returns the number of accesses.
func (a *Accesses) Total() uint64 {
	return a.Fetches + a.Data[0] + a.Data[1] + a.Data[2]
}

// Cycles returns what the accesses cost when served from the scratchpad
// (spm) or from cache-less main memory (Table 1): a fetch is a halfword
// access, a data access costs the price of its width.
func (a *Accesses) Cycles(spm bool) uint64 {
	if spm {
		return a.Total() * SPMCycles
	}
	c := a.Fetches * uint64(MainCost(2))
	for i, n := range a.Data {
		c += n * uint64(MainCost(1<<i))
	}
	return c
}

// Saving returns the cycles the accesses save when served from the
// scratchpad instead of cache-less main memory.
func (a *Accesses) Saving() uint64 { return a.Cycles(false) - a.Cycles(true) }

// Segment is a contiguous backed address range.
type Segment struct {
	Name string
	Base uint32
	Data []byte
	// counts holds one access vector per byte of Data once counting is on.
	counts []Accesses
}

// Contains reports whether the address range [addr, addr+size) lies in the
// segment.
func (s *Segment) Contains(addr uint32, size uint8) bool {
	return addr >= s.Base && uint64(addr)+uint64(size) <= uint64(s.Base)+uint64(len(s.Data))
}

// get reads a little-endian value of size (1, 2 or 4) bytes from the
// front of b.
func get(b []byte, size uint8) uint32 {
	switch size {
	case 4:
		return binary.LittleEndian.Uint32(b)
	case 2:
		return uint32(binary.LittleEndian.Uint16(b))
	}
	return uint32(b[0])
}

// put writes a little-endian value of size (1, 2 or 4) bytes to the front
// of b.
func put(b []byte, size uint8, val uint32) {
	switch size {
	case 4:
		binary.LittleEndian.PutUint32(b, val)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(val))
	default:
		b[0] = byte(val)
	}
}

// System is the complete memory system; it implements arm.Bus. After
// CountAccesses it also counts the accesses it serves.
type System struct {
	// SPM is the scratchpad segment; nil when the system has no scratchpad.
	SPM *Segment
	// Main holds the main-memory segments (code, data, stack, …).
	Main []*Segment
	// Sweep, when non-nil, is fed every main-memory read, with its fetch
	// flag and cost, and every main-memory write; scratchpad accesses
	// bypass it.
	Sweep *cache.Sweep

	// segs is every segment, the scratchpad first.
	segs []*Segment
	// regions caches, per address region, the segment the region's last
	// access resolved to: slot (addr >> regionShift) % regionSlots. An
	// access inside its slot's segment needs no search; any other access
	// searches the segments and refills the slot. Segments are disjoint,
	// so the cache never changes where an address resolves.
	regions     [regionSlots]window
	regionShift uint8
}

// regionSlots is the size of the region cache.
const regionSlots = 8

// window is one region-cache slot: a segment's bounds copied into the
// System, so that a hit is a single compare with no pointer to chase.
type window struct {
	base   uint32
	data   []byte
	counts []Accesses
	spm    bool
}

// NewSystem builds a memory system from segments. spm may be nil. The
// segments must not overlap and must stay fixed while the system is used.
func NewSystem(spm *Segment, main ...*Segment) *System {
	m := &System{SPM: spm, Main: main, segs: main}
	if spm != nil {
		m.segs = append([]*Segment{spm}, main...)
	}
	m.regionShift = m.separatingShift()
	return m
}

// separatingShift returns the coarsest region size, as a shift, at which
// every segment lies within one region and no two segments share a
// region-cache slot, so that after one miss per segment every access hits.
// When there is none, 0 still resolves correctly, just with more misses.
func (m *System) separatingShift() uint8 {
shifts:
	for shift := uint8(31); shift > 0; shift-- {
		var used [regionSlots]bool
		for _, s := range m.segs {
			if len(s.Data) == 0 {
				continue
			}
			last := uint64(s.Base) + uint64(len(s.Data)) - 1
			slot := s.Base >> shift % regionSlots
			if uint64(s.Base>>shift) != last>>shift || used[slot] {
				continue shifts
			}
			used[slot] = true
		}
		return shift
	}
	return 0
}

// CountAccesses turns counting on: from then on Read and Write count each
// access they serve, scratchpad included, at its start address.
func (m *System) CountAccesses() {
	for _, s := range m.segs {
		s.counts = make([]Accesses, len(s.Data))
	}
	m.regions = [regionSlots]window{}
}

// Counts returns the counts of the n bytes from addr, fetches and data by
// width, or nil when counting is off or no segment holds them all.
func (m *System) Counts(addr, n uint32) []Accesses {
	s := m.segment(addr, 1)
	if s == nil || uint64(addr-s.Base)+uint64(n) > uint64(len(s.counts)) {
		return nil
	}
	return s.counts[addr-s.Base:][:n]
}

// region returns the region-cache slot for addr.
func (m *System) region(addr uint32) *window {
	return &m.regions[addr>>(m.regionShift&31)%regionSlots]
}

// offset returns addr's offset into the window and whether the access
// fits in it. Below the base the subtraction wraps past every segment end.
func (w *window) offset(addr uint32, size uint8) (uint32, bool) {
	off := addr - w.base
	return off, uint64(off)+uint64(size) <= uint64(len(w.data))
}

// segment returns the segment holding [addr, addr+size): the scratchpad
// when it covers the range, else the first main segment that does.
func (m *System) segment(addr uint32, size uint8) *Segment {
	for _, s := range m.segs {
		if s.Contains(addr, size) {
			return s
		}
	}
	return nil
}

// fill points slot w at the segment holding the access and reports
// whether there is one.
func (m *System) fill(w *window, addr uint32, size uint8) bool {
	s := m.segment(addr, size)
	if s == nil {
		return false
	}
	*w = window{base: s.Base, data: s.Data, counts: s.counts, spm: s == m.SPM}
	return true
}

// unmapped reports an access that no segment backs.
func unmapped(what string, addr uint32, size uint8) error {
	return fmt.Errorf("mem: unmapped %d-byte %s at %#x", size, what, addr)
}

// Read implements arm.Bus.
func (m *System) Read(addr uint32, size uint8, fetch bool) (uint32, int, error) {
	w := m.region(addr)
	off, ok := w.offset(addr, size)
	if !ok {
		if !m.fill(w, addr, size) {
			return 0, 0, unmapped("read", addr, size)
		}
		off = addr - w.base
	}
	if w.counts != nil {
		if fetch {
			w.counts[off].Fetches++
		} else {
			w.counts[off].Add(size, 1)
		}
	}
	v := get(w.data[off:], size)
	if w.spm {
		return v, SPMCycles, nil
	}
	c := MainCost(size)
	if m.Sweep != nil {
		m.Sweep.Read(addr, fetch, c)
	}
	return v, c, nil
}

// Write implements arm.Bus.
func (m *System) Write(addr uint32, size uint8, val uint32) (int, error) {
	w := m.region(addr)
	off, ok := w.offset(addr, size)
	if !ok {
		if !m.fill(w, addr, size) {
			return 0, unmapped("write", addr, size)
		}
		off = addr - w.base
	}
	if w.counts != nil {
		w.counts[off].Add(size, 1)
	}
	put(w.data[off:], size, val)
	if w.spm {
		return SPMCycles, nil
	}
	if m.Sweep != nil {
		m.Sweep.Write(addr)
	}
	return MainCost(size), nil
}

// Peek reads memory without timing, cache or counter side effects.
// It is used to inspect results after simulation.
func (m *System) Peek(addr uint32, size uint8) (uint32, error) {
	seg := m.segment(addr, size)
	if seg == nil {
		return 0, unmapped("peek", addr, size)
	}
	return get(seg.Data[addr-seg.Base:], size), nil
}

// Poke writes memory without timing, cache or counter side effects, for
// test and input injection.
func (m *System) Poke(addr uint32, size uint8, val uint32) error {
	seg := m.segment(addr, size)
	if seg == nil {
		return unmapped("poke", addr, size)
	}
	put(seg.Data[addr-seg.Base:], size, val)
	return nil
}
