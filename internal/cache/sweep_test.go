package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// sweepOracle is what a Sweep must equal: one independent Cache per
// configuration, fed every access.
type sweepOracle []*Cache

func (o sweepOracle) read(addr uint32) {
	for _, c := range o {
		c.Read(addr)
	}
}

func (o sweepOracle) write(addr uint32, size uint8) {
	for _, c := range o {
		c.Write(addr, size)
	}
}

func newOracle(t *testing.T, cfgs []Config) sweepOracle {
	t.Helper()
	o := make(sweepOracle, len(cfgs))
	for i, cfg := range cfgs {
		o[i] = mustNew(t, cfg)
	}
	return o
}

func checkSweep(t *testing.T, what string, s *Sweep, o sweepOracle) {
	t.Helper()
	for i, c := range o {
		if hits, misses := s.Counts(i); hits != c.Hits || misses != c.Misses {
			t.Errorf("%s: %d B: sweep %d hits %d misses, cache %d/%d",
				what, c.Config().Size, hits, misses, c.Hits, c.Misses)
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
		for range 5000 {
			addr := uint32(1+rng.Intn(3))<<20 + uint32(rng.Int63n(int64(span)))&^1
			switch rng.Intn(3) {
			case 0, 1: // fetch or data read
				s.Read(addr)
				o.read(addr)
			default:
				o.write(addr, uint8(1)<<rng.Intn(3))
			}
		}
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
			o.write(step.addr, 4)
			continue
		}
		s.Read(step.addr)
		o.read(step.addr)
	}
	checkSweep(t, "write to larger only", s, o)
	if h, m := s.Counts(0); h != 0 || m != 4 {
		t.Errorf("16 B: %d hits %d misses, want 0/4", h, m)
	}
	if h, m := s.Counts(1); h != 2 || m != 2 {
		t.Errorf("64 B: %d hits %d misses, want 2/2", h, m)
	}
}

func TestNewSweepRejects(t *testing.T) {
	for _, cfgs := range [][]Config{
		nil,
		{{Size: 64}, {Size: 128, Assoc: 2}},
		{{Size: 64}, {Size: 128, InstructionOnly: true}},
		{{Size: 64}, {Size: 128, LineSize: 32}},
		{{Size: 96}},
	} {
		if _, err := NewSweep(cfgs); err == nil {
			t.Errorf("NewSweep(%+v) = nil error", cfgs)
		}
	}
}
