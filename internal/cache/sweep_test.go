package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// sweepOracle is what a Sweep must equal: one independent Cache per
// configuration, fed every access it sees (an instruction cache sees only
// fetches), and the main-memory cost of the reads each one prices.
type sweepOracle struct {
	caches []*Cache
	cost   []uint64
}

func (o *sweepOracle) read(addr uint32, fetch bool, cost int) {
	for i, c := range o.caches {
		if fetch || !c.Config().InstructionOnly {
			c.Read(addr)
			o.cost[i] += uint64(cost)
		}
	}
}

func (o *sweepOracle) write(addr uint32) {
	for _, c := range o.caches {
		if !c.Config().InstructionOnly {
			c.Write(addr)
		}
	}
}

func newOracle(t *testing.T, cfgs []Config) *sweepOracle {
	t.Helper()
	o := &sweepOracle{cost: make([]uint64, len(cfgs))}
	for _, cfg := range cfgs {
		o.caches = append(o.caches, mustNew(t, cfg))
	}
	return o
}

func checkSweep(t *testing.T, what string, s *Sweep, o *sweepOracle) {
	t.Helper()
	for i, c := range o.caches {
		if hits, misses, cost := s.Counts(i); hits != c.Hits || misses != c.Misses || cost != o.cost[i] {
			t.Errorf("%s: %+v: sweep %d hits %d misses costing %d, cache %d/%d costing %d",
				what, c.Config(), hits, misses, cost, c.Hits, c.Misses, o.cost[i])
		}
	}
}

// sweepSizes is every direct-mapped capacity with 16-byte lines from one
// line up to 64 KB.
func sweepSizes() []Config {
	var cfgs []Config
	for size := uint32(16); size <= 64<<10; size <<= 1 {
		cfgs = append(cfgs, Config{Size: size})
	}
	return cfgs
}

// TestSweepMatchesCaches feeds random streams of fetches, reads and
// writes to a Sweep and to one Cache per capacity. Addresses fall in three
// regions 1 MB apart, like code, data and stack, so they alias at every
// capacity; the configurations come shuffled and with a repeat.
func TestSweepMatchesCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := range 40 {
		cfgs := sweepSizes()
		rng.Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })
		cfgs = append(cfgs, cfgs[rng.Intn(len(cfgs))])
		s, err := NewSweep(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		o := newOracle(t, cfgs)
		// A small footprint per trial keeps every capacity between
		// thrashing and holding it all.
		span := uint32(64) << rng.Intn(10)
		feed(rng, s, o, span)
		checkSweep(t, fmt.Sprintf("trial %d", trial), s, o)
	}
}

// feed sends 5000 random fetches, data reads and writes to both s and o.
// Addresses fall in three regions 1 MB apart, like code, data and stack,
// within span bytes of each region's start.
func feed(rng *rand.Rand, s *Sweep, o *sweepOracle, span uint32) {
	for range 5000 {
		addr := uint32(1+rng.Intn(3))<<20 + uint32(rng.Int63n(int64(span)))&^1
		cost := 2 + 2*rng.Intn(2)
		switch rng.Intn(3) {
		case 0, 1: // fetch or data read
			fetch := rng.Intn(2) == 0
			s.Read(addr, fetch, cost)
			o.read(addr, fetch, cost)
		default:
			s.Write(addr)
			o.write(addr)
		}
	}
}

// TestSweepMixedMatchesCaches: a batch mixing direct-mapped capacities of
// two line sizes with 2- and 4-way, instruction-only and repeated
// configurations equals one Cache per configuration, writes refreshing
// the LRU sets and instruction caches seeing only fetches.
func TestSweepMixedMatchesCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := range 40 {
		cfgs := []Config{
			{Size: 256}, {Size: 1024}, {Size: 64},
			{Size: 256, Assoc: 2}, {Size: 1024, Assoc: 4}, {Size: 512, LineSize: 32},
			{Size: 512, InstructionOnly: true}, {Size: 1024, Assoc: 2, InstructionOnly: true},
			{Size: 256, Assoc: 2}, {Size: 2048, LineSize: 32},
		}
		rng.Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })
		s, err := NewSweep(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		o := newOracle(t, cfgs)
		feed(rng, s, o, uint32(64)<<rng.Intn(8))
		checkSweep(t, fmt.Sprintf("trial %d", trial), s, o)
	}
}

// TestSweepWriteToLargerOnly writes to a line that only the larger caches
// hold: no cache allocates it, so the small cache still misses and the
// large one still hits.
func TestSweepWriteToLargerOnly(t *testing.T) {
	cfgs := []Config{{Size: 16}, {Size: 64}}
	s, err := NewSweep(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(t, cfgs)
	const A, B = 0x0010_0000, 0x0010_0010 // one set at 16 B, two at 64 B
	for _, step := range []struct {
		addr  uint32
		write bool
	}{{A, false}, {B, false}, {A, true}, {A, false}, {B, true}, {B, false}} {
		if step.write {
			s.Write(step.addr)
			o.write(step.addr)
			continue
		}
		s.Read(step.addr, false, 4)
		o.read(step.addr, false, 4)
	}
	checkSweep(t, "write to larger only", s, o)
	if h, m, _ := s.Counts(0); h != 0 || m != 4 {
		t.Errorf("16 B: %d hits %d misses, want 0/4", h, m)
	}
	if h, m, _ := s.Counts(1); h != 2 || m != 2 {
		t.Errorf("64 B: %d hits %d misses, want 2/2", h, m)
	}
}

// TestNewSweepRejects: a sweep needs at least one configuration, and
// valid ones only.
func TestNewSweepRejects(t *testing.T) {
	for _, cfgs := range [][]Config{
		nil,
		{{Size: 96}},
		{{Size: 64}, {Size: 128, Assoc: 3}},
		{{Size: 64}, {Size: 1024, Assoc: 1 << 28}},
	} {
		if _, err := NewSweep(cfgs); err == nil {
			t.Errorf("NewSweep(%+v) = nil error", cfgs)
		}
	}
}
