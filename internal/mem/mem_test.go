package mem

import (
	"testing"

	"repro/internal/cache"
)

func sys(spmSize int) *System {
	var spm *Segment
	if spmSize > 0 {
		spm = &Segment{Name: "spm", Base: 0x0000, Data: make([]byte, spmSize)}
	}
	return NewSystem(spm,
		&Segment{Name: "code", Base: 0x10000, Data: make([]byte, 0x8000)},
		&Segment{Name: "data", Base: 0x20000, Data: make([]byte, 0x8000)},
	)
}

func TestTable1Costs(t *testing.T) {
	m := sys(1024)
	cases := []struct {
		addr uint32
		size uint8
		want int
	}{
		{0x10, 1, SPMCycles}, // SPM byte
		{0x10, 2, SPMCycles}, // SPM halfword
		{0x10, 4, SPMCycles}, // SPM word
		{0x10000, 1, MainByteCycles},
		{0x10000, 2, MainHalfCycles},
		{0x10000, 4, MainWordCycles},
	}
	for _, c := range cases {
		_, cyc, err := m.Read(c.addr, c.size, false)
		if err != nil {
			t.Fatalf("read %#x: %v", c.addr, err)
		}
		if cyc != c.want {
			t.Errorf("read %#x size %d: %d cycles, want %d", c.addr, c.size, cyc, c.want)
		}
		wcyc, err := m.Write(c.addr, c.size, 0)
		if err != nil {
			t.Fatalf("write %#x: %v", c.addr, err)
		}
		if wcyc != c.want {
			t.Errorf("write %#x size %d: %d cycles, want %d", c.addr, c.size, wcyc, c.want)
		}
	}
}

// TestAccessesPriceMatchesSystem pins the access vector's price table to
// the simulator: one access of each width, and one instruction fetch, costs
// what System.Read and System.Write charge for it on either memory side.
func TestAccessesPriceMatchesSystem(t *testing.T) {
	m := sys(1024)
	for _, side := range []struct {
		spm  bool
		addr uint32
	}{{true, 0x10}, {false, 0x20000}} {
		for _, width := range []uint8{1, 2, 4} {
			var a Accesses
			a.Add(width, 1)
			_, rcyc, err := m.Read(side.addr, width, false)
			if err != nil {
				t.Fatal(err)
			}
			wcyc, err := m.Write(side.addr, width, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := a.Cycles(side.spm); got != uint64(rcyc) || got != uint64(wcyc) {
				t.Errorf("spm=%v width %d: vector prices %d, read costs %d, write %d", side.spm, width, got, rcyc, wcyc)
			}
		}
		fetch := Accesses{Fetches: 1}
		_, fcyc, err := m.Read(side.addr, 2, true)
		if err != nil {
			t.Fatal(err)
		}
		if got := fetch.Cycles(side.spm); got != uint64(fcyc) {
			t.Errorf("spm=%v: vector prices a fetch %d, the fetch costs %d", side.spm, got, fcyc)
		}
	}
}

// TestAccessesArithmetic: Total, AddScaled and Saving agree with counting
// and pricing the accesses one by one.
func TestAccessesArithmetic(t *testing.T) {
	b := Accesses{Fetches: 3, Data: [3]uint64{1, 2, 5}}
	var a Accesses
	a.AddScaled(&b, 4)
	if a != (Accesses{Fetches: 12, Data: [3]uint64{4, 8, 20}}) || a.Total() != 44 {
		t.Fatalf("4 × %+v = %+v (total %d)", b, a, a.Total())
	}
	main := 12*MainHalfCycles + 4*MainByteCycles + 8*MainHalfCycles + 20*MainWordCycles
	if a.Cycles(false) != uint64(main) || a.Saving() != uint64(main-44*SPMCycles) {
		t.Errorf("main cycles %d, saving %d; want %d, %d", a.Cycles(false), a.Saving(), main, main-44*SPMCycles)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := sys(256)
	for _, tc := range []struct {
		addr uint32
		size uint8
		val  uint32
	}{
		{0x20, 4, 0xDEADBEEF},
		{0x24, 2, 0xBEEF},
		{0x26, 1, 0x7F},
		{0x20010, 4, 0x12345678},
	} {
		if _, err := m.Write(tc.addr, tc.size, tc.val); err != nil {
			t.Fatal(err)
		}
		v, _, err := m.Read(tc.addr, tc.size, false)
		if err != nil {
			t.Fatal(err)
		}
		if v != tc.val {
			t.Errorf("round trip %#x size %d: got %#x, want %#x", tc.addr, tc.size, v, tc.val)
		}
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := sys(0)
	m.Write(0x20000, 4, 0x11223344)
	lo, _, _ := m.Read(0x20000, 1, false)
	hi, _, _ := m.Read(0x20003, 1, false)
	if lo != 0x44 || hi != 0x11 {
		t.Fatalf("little-endian bytes: lo=%#x hi=%#x", lo, hi)
	}
	h, _, _ := m.Read(0x20002, 2, false)
	if h != 0x1122 {
		t.Fatalf("high halfword = %#x, want 0x1122", h)
	}
}

func TestUnmappedAccess(t *testing.T) {
	m := sys(64)
	if _, _, err := m.Read(0x9000000, 4, false); err == nil {
		t.Error("unmapped read should fail")
	}
	if _, err := m.Write(0x9000000, 4, 0); err == nil {
		t.Error("unmapped write should fail")
	}
	// Access straddling the end of a segment fails.
	if _, _, err := m.Read(0x17FFE, 4, false); err == nil {
		t.Error("straddling read should fail")
	}
	// SPM boundary: inside 64-byte SPM ok, beyond falls through to unmapped.
	if _, _, err := m.Read(60, 4, false); err != nil {
		t.Errorf("in-SPM read failed: %v", err)
	}
	if _, _, err := m.Read(64, 4, false); err == nil {
		t.Error("read past SPM should be unmapped")
	}
}

// TestCachedMainMemory: with a sweep attached, every main-memory access
// still costs main-memory cost, and the sweep sees each read with its
// fetch flag and cost: a fetch miss, a fetch hit, a data read hit.
func TestCachedMainMemory(t *testing.T) {
	m := sys(0)
	var err error
	m.Sweep, err = cache.NewSweep([]cache.Config{{Size: 64}, {Size: 64, InstructionOnly: true}})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []struct {
		size  uint8
		fetch bool
	}{{2, true}, {2, true}, {4, false}} {
		if _, cyc, _ := m.Read(0x10000, a.size, a.fetch); cyc != MainCost(a.size) {
			t.Fatalf("%d-byte read cost %d, want %d", a.size, cyc, MainCost(a.size))
		}
	}
	if wcyc, _ := m.Write(0x10000, 4, 1); wcyc != MainWordCycles {
		t.Fatalf("write cost %d, want %d", wcyc, MainWordCycles)
	}
	if h, miss, cost := m.Sweep.Counts(0); h != 2 || miss != 1 || cost != 2*MainHalfCycles+MainWordCycles {
		t.Errorf("unified: %d hits %d misses costing %d, want 2/1 costing %d", h, miss, cost, 2*MainHalfCycles+MainWordCycles)
	}
	if h, miss, cost := m.Sweep.Counts(1); h != 1 || miss != 1 || cost != 2*MainHalfCycles {
		t.Errorf("instruction-only: %d hits %d misses costing %d, want 1/1 costing %d", h, miss, cost, 2*MainHalfCycles)
	}
}

// TestSPMBypassesCache: scratchpad accesses never reach the sweep.
func TestSPMBypassesCache(t *testing.T) {
	m := sys(1024)
	var err error
	m.Sweep, err = cache.NewSweep([]cache.Config{{Size: 64}})
	if err != nil {
		t.Fatal(err)
	}
	_, cyc, _ := m.Read(0x10, 4, false)
	if cyc != SPMCycles {
		t.Fatalf("SPM read with a sweep attached cost %d, want %d", cyc, SPMCycles)
	}
	if h, miss, cost := m.Sweep.Counts(0); h+miss+cost != 0 {
		t.Fatal("SPM access must not reach the sweep")
	}
}

// TestCountAccesses: with counting on, a read or write counts once at its
// start address, a fetch apart from data and data by width, on the
// scratchpad as in main memory; an unmapped access, even one that starts
// inside a segment, counts nowhere.
func TestCountAccesses(t *testing.T) {
	m := sys(64)
	if m.Counts(0x10000, 4) != nil {
		t.Fatal("counts before counting is on")
	}
	m.CountAccesses()
	m.Read(0x10000, 2, true)
	m.Read(0x10000, 2, true)
	m.Read(0x10000, 4, false)
	m.Write(0x20002, 2, 7)
	m.Read(0x20003, 1, false)
	m.Write(0x10, 4, 1)
	if _, _, err := m.Read(0x40000, 4, false); err == nil {
		t.Fatal("unmapped read succeeded")
	}
	if _, err := m.Write(0x8000, 2, 0); err == nil {
		t.Fatal("unmapped write succeeded")
	}
	if _, _, err := m.Read(0x17ffe, 4, false); err == nil {
		t.Fatal("read across the code segment's end succeeded")
	}
	want := map[uint32]Accesses{
		0x10000: {Fetches: 2, Data: [3]uint64{2: 1}},
		0x20002: {Data: [3]uint64{1: 1}},
		0x20003: {Data: [3]uint64{0: 1}},
		0x10:    {Data: [3]uint64{2: 1}},
	}
	var total uint64
	for _, s := range append([]*Segment{m.SPM}, m.Main...) {
		for off, c := range m.Counts(s.Base, uint32(len(s.Data))) {
			total += c.Total()
			if addr := s.Base + uint32(off); c != want[addr] {
				t.Errorf("%#x counted %+v, want %+v", addr, c, want[addr])
			}
		}
	}
	if total != 6 {
		t.Errorf("%d accesses counted, want 6", total)
	}
	if got := m.Counts(0x20000, 4); len(got) != 4 || got[2] != want[0x20002] {
		t.Errorf("Counts(0x20000, 4) = %+v", got)
	}
	if m.Counts(0x27ffe, 4) != nil || m.Counts(0x40000, 1) != nil {
		t.Error("counts for a range no segment holds")
	}
}

func TestPeekPokeNoSideEffects(t *testing.T) {
	m := sys(64)
	var err error
	if m.Sweep, err = cache.NewSweep([]cache.Config{{Size: 64}}); err != nil {
		t.Fatal(err)
	}
	m.CountAccesses()
	m.Poke(0x10000, 4, 42)
	m.Poke(0x10, 2, 7)
	v, err := m.Peek(0x10000, 4)
	if err != nil || v != 42 {
		t.Fatalf("peek = %d, %v", v, err)
	}
	if v, err := m.Peek(0x10, 2); err != nil || v != 7 {
		t.Fatalf("peek spm = %d, %v", v, err)
	}
	if h, miss, cost := m.Sweep.Counts(0); h+miss+cost != 0 {
		t.Fatal("peek or poke reached the sweep")
	}
	for _, s := range append([]*Segment{m.SPM}, m.Main...) {
		for off, c := range m.Counts(s.Base, uint32(len(s.Data))) {
			if c.Total() != 0 {
				t.Errorf("peek or poke counted at %#x: %+v", s.Base+uint32(off), c)
			}
		}
	}
}

// TestRegionCacheAgreesWithSearch drives accesses around every segment
// boundary through Read and Write, whose region cache only ever short-cuts
// the segment search, and checks each against Peek and Poke, which always
// search. The layouts include one the cache separates (the linker's
// 1 MB regions), adjacent segments, and more segments than cache slots.
func TestRegionCacheAgreesWithSearch(t *testing.T) {
	seg := func(base uint32, n int) *Segment {
		s := &Segment{Base: base, Data: make([]byte, n)}
		for i := range s.Data {
			s.Data[i] = byte(i*7 + int(base>>8))
		}
		return s
	}
	layouts := map[string]*System{
		"linker":   NewSystem(seg(0, 1024), seg(0x10_0000, 4096), seg(0x20_0000, 512), seg(0x30_0000, 0x1_0000)),
		"adjacent": NewSystem(nil, seg(0x1000, 0x100), seg(0x1100, 0x100), seg(0x1200, 0x40)),
		"crowded": NewSystem(seg(0, 64), seg(0x100, 16), seg(0x200, 16), seg(0x300, 16), seg(0x400, 16),
			seg(0x500, 16), seg(0x600, 16), seg(0x700, 16), seg(0x800, 16), seg(0x900, 16)),
	}
	if got := layouts["linker"].regionShift; got != 20 {
		t.Errorf("linker layout region shift %d, want 20", got)
	}
	for name, m := range layouts {
		var addrs []uint32
		for _, s := range append([]*Segment{m.SPM}, m.Main...) {
			if s == nil {
				continue
			}
			end := s.Base + uint32(len(s.Data))
			for _, a := range []uint32{s.Base - 4, s.Base - 1, s.Base, s.Base + 1, end - 4, end - 3, end - 2, end - 1, end, end + 2} {
				addrs = append(addrs, a)
			}
		}
		// Alternate between boundaries so that slots keep being refilled.
		for round := 0; round < 3; round++ {
			for i, a := range addrs {
				for _, size := range []uint8{1, 2, 4} {
					want, wantErr := m.Peek(a, size)
					got, _, err := m.Read(a, size, i%2 == 0)
					if (err == nil) != (wantErr == nil) || got != want {
						t.Fatalf("%s: read %#x/%d = %#x, %v; search gives %#x, %v", name, a, size, got, err, want, wantErr)
					}
					if err != nil {
						continue
					}
					val := uint32(round*1000 + i)
					if _, err := m.Write(a, size, val); err != nil {
						t.Fatalf("%s: write %#x/%d: %v", name, a, size, err)
					}
					back, _ := m.Peek(a, size)
					if mask := uint32(1)<<(8*uint32(size)) - 1; back != val&mask { // a 32-bit shift gives 0
						t.Fatalf("%s: wrote %#x at %#x/%d, read back %#x", name, val, a, size, back)
					}
					if err := m.Poke(a, size, want); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}
