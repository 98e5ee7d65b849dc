package alloc_test

// Block-granularity bound dominance: on every benchmark × paper capacity
// the block-granularity WCET-directed bound must be ≤ the whole-object
// bound (the block strategy is seeded with the whole-object solution and
// takes the minimum), and across the suite at least one cell must be
// strictly better — the splitting machinery must actually pay for itself.

import (
	"context"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/benchprog"
	"repro/internal/cc"
	"repro/internal/pipeline"
	"repro/internal/wcet"
)

var paperSizes = []uint32{64, 128, 256, 512, 1024, 2048, 4096, 8192}

// strictWins tallies strictly-better cells across the subtests of
// TestBlockGranularityNeverWorse (they run in parallel).
var strictWins struct {
	sync.Mutex
	n     int
	cells int
}

func TestBlockGranularityNeverWorse(t *testing.T) {
	benches := append(benchprog.All(), benchprog.WorstCaseSort)
	t.Run("sweep", func(t *testing.T) {
		for _, b := range benches {
			b := b
			t.Run(b.Name, func(t *testing.T) {
				t.Parallel()
				prog, err := cc.Compile(b.Source)
				if err != nil {
					t.Fatal(err)
				}
				p := pipeline.New(prog, "", nil)
				for _, capacity := range paperSizes {
					objRes, err := allocateIn(context.Background(), p, capacity, alloc.Options{})
					if err != nil {
						t.Fatal(err)
					}
					blkRes, err := allocateIn(context.Background(), p, capacity, alloc.Options{Granularity: alloc.GranBlock})
					if err != nil {
						t.Fatal(err)
					}
					if blkRes.WCET > objRes.WCET {
						t.Errorf("capacity %d: block bound %d worse than object bound %d",
							capacity, blkRes.WCET, objRes.WCET)
					}
					if len(blkRes.Splits) == 0 && blkRes.WCET != objRes.WCET {
						t.Errorf("capacity %d: unsplit block result %d differs from object result %d",
							capacity, blkRes.WCET, objRes.WCET)
					}
					// The reported bound must be reproducible: re-analysing
					// the winning placement under its partition certifies
					// the same number.
					res, err := p.AnalyzeUnits(context.Background(), blkRes.Splits, capacity, blkRes.InSPM, wcet.Options{})
					if err != nil {
						t.Fatal(err)
					}
					if res.WCET != blkRes.WCET {
						t.Errorf("capacity %d: reported bound %d, re-analysis %d", capacity, blkRes.WCET, res.WCET)
					}
					strictWins.Lock()
					strictWins.cells++
					if blkRes.WCET < objRes.WCET {
						strictWins.n++
					}
					strictWins.Unlock()
				}
			})
		}
	})
	strictWins.Lock()
	defer strictWins.Unlock()
	t.Logf("block granularity strictly better in %d of %d benchmark × capacity cells", strictWins.n, strictWins.cells)
	if strictWins.n == 0 {
		t.Error("block granularity never strictly improved a bound — splitting is dead weight")
	}
}
