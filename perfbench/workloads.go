package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/benchprog"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/wcet"
)

// op is one timed operation. A non-nil tracer asks the op to record a
// span around each layer call and to check its layer invariants.
type op func(ctx context.Context, tr *tracer) error

// workload is one benchmark scenario. Every op runs on one goroutine,
// one after the other, with every worker pool of the program at one.
type workload interface {
	// defaultSetups is how many times set-up runs per run.
	defaultSetups() int
	// setup builds what the ops use. The caller closes any earlier set-up
	// first, outside the time setup_s measures.
	setup(ctx context.Context) error
	// round prepares a round (untimed) and returns its ops in the order
	// rng fixes.
	round(rng *rand.Rand) []op
	// probeStore is the artifact store the workload's labs read, if any.
	probeStore() *store.Store
	// keepAlive keeps the workload's memoised state reachable until the
	// live heap has been measured.
	keepAlive()
	close()
}

var workloadList = []string{"paper_cold", "static_explore", "warm_restart"}

func workloadNames() string { return strings.Join(workloadList, ", ") }

func newWorkload(name string, ref *reference, workDir string) (workload, error) {
	switch name {
	case "paper_cold":
		return &paperCold{ref: ref}, nil
	case "static_explore":
		return &staticExplore{ref: ref}, nil
	case "warm_restart":
		return &warmRestart{ref: ref, workDir: workDir}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, workloadNames())
}

// buildLabs compiles and profiles the paper's three benchmarks, each with
// a sequential sweep pool.
func buildLabs(st *store.Store) ([]*core.Lab, error) {
	var labs []*core.Lab
	for _, b := range benchprog.All() {
		lab, err := core.NewLabWithStore(b, st)
		if err != nil {
			return nil, err
		}
		lab.Workers = 1
		labs = append(labs, lab)
	}
	return labs, nil
}

func shuffledSizes(rng *rand.Rand) []uint32 {
	s := append([]uint32(nil), core.PaperSizes...)
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	return s
}

// paperCold regenerates Figures 3–6 with every artifact cold: each round
// resets the labs' pipelines, and each op measures one capacity on both
// branches of all three benchmarks (6 simulations, 6 analyses).
type paperCold struct {
	ref  *reference
	labs []*core.Lab
}

func (w *paperCold) defaultSetups() int { return 5 }

func (w *paperCold) setup(context.Context) error {
	labs, err := buildLabs(nil)
	w.labs = labs
	return err
}

func (w *paperCold) round(rng *rand.Rand) []op {
	for _, lab := range w.labs {
		lab.ResetArtifacts()
	}
	var ops []op
	for _, size := range shuffledSizes(rng) {
		ops = append(ops, func(ctx context.Context, tr *tracer) error { return w.op(ctx, tr, size) })
	}
	return ops
}

func (w *paperCold) op(ctx context.Context, tr *tracer, size uint32) error {
	for _, lab := range w.labs {
		row, err := scratchpadRow(ctx, tr, lab, size)
		if err != nil {
			return err
		}
		if err := w.ref.paper(lab.Bench.Name, "spm", size, row); err != nil {
			return err
		}
		if row, err = cacheRow(ctx, tr, lab, size); err != nil {
			return err
		}
		if err := w.ref.paper(lab.Bench.Name, "cache", size, row); err != nil {
			return err
		}
	}
	return nil
}

func (w *paperCold) probeStore() *store.Store { return nil }
func (w *paperCold) keepAlive()               { runtime.KeepAlive(w.labs) }
func (w *paperCold) close()                   {}

func measuredRow(m core.Measurement) paperRow {
	return paperRow{
		SimCycles:   m.SimCycles,
		CacheHits:   m.CacheHits,
		CacheMisses: m.CacheMisses,
		WCET:        m.WCET,
		SPMUsed:     m.SPMUsed,
		EnergyNJ:    m.Energy,
	}
}

// scratchpadRow measures the scratchpad branch at one capacity. Traced,
// it calls the stages Lab.WithScratchpad runs one by one, each in its own
// span.
func scratchpadRow(ctx context.Context, tr *tracer, lab *core.Lab, size uint32) (paperRow, error) {
	if tr == nil {
		m, err := lab.WithScratchpad(ctx, size)
		return measuredRow(m), err
	}
	sp := tr.begin("alloc")
	a, err := lab.Pipe.Allocate(ctx, lab.EnergyAllocator(), size)
	tr.end(sp)
	if err != nil {
		return paperRow{}, err
	}
	if len(a.Splits) != 0 {
		return paperRow{}, fmt.Errorf("%s: energy allocation at %d split functions", lab.Bench.Name, size)
	}
	sp = tr.begin("link")
	_, err = lab.Pipe.LinkUnits(ctx, nil, size, a.InSPM)
	tr.end(sp)
	if err != nil {
		return paperRow{}, err
	}
	sp = tr.begin("sim")
	res, err := lab.Pipe.SimulateUnits(ctx, nil, size, a.InSPM, nil)
	tr.end(sp)
	if err != nil {
		return paperRow{}, err
	}
	tr.add("sim.instrs", float64(res.Instrs))
	sp = tr.begin("wcet.spm")
	wr, err := lab.Pipe.AnalyzeUnits(ctx, nil, size, a.InSPM, wcet.Options{})
	tr.end(sp)
	if err != nil {
		return paperRow{}, err
	}
	return paperRow{
		SimCycles: res.Cycles,
		WCET:      wr.WCET,
		SPMUsed:   a.Used,
		EnergyNJ:  lab.Model.ProgramEnergy(lab.Prog, lab.Profile, a.InSPM),
	}, nil
}

// cacheRow measures the direct-mapped cache branch at one capacity, by
// stages when traced, like scratchpadRow.
func cacheRow(ctx context.Context, tr *tracer, lab *core.Lab, size uint32) (paperRow, error) {
	if tr == nil {
		m, err := lab.WithCache(ctx, size, 1)
		return measuredRow(m), err
	}
	cfg := cache.Config{Size: size, Assoc: 1}
	sp := tr.begin("link")
	_, err := lab.Pipe.LinkUnits(ctx, nil, 0, nil)
	tr.end(sp)
	if err != nil {
		return paperRow{}, err
	}
	sp = tr.begin("sim")
	res, err := lab.Pipe.SimulateUnits(ctx, nil, 0, nil, &cfg)
	tr.end(sp)
	if err != nil {
		return paperRow{}, err
	}
	tr.add("sim.instrs", float64(res.Instrs))
	sp = tr.begin("wcet.cache")
	wr, err := lab.Pipe.AnalyzeUnits(ctx, nil, 0, nil, wcet.Options{Cache: &cfg, StackBound: lab.StackBound})
	tr.end(sp)
	if err != nil {
		return paperRow{}, err
	}
	return paperRow{SimCycles: res.Cycles, CacheHits: res.CacheHits, CacheMisses: res.CacheMisses, WCET: wr.WCET}, nil
}

// staticExplore is WCET-only design-space exploration: per op, each lab
// starts cold, computes its energy/WCET Pareto fronts at every capacity
// and bounds every cache capacity × associativity. Nothing is simulated
// after set-up.
type staticExplore struct {
	ref  *reference
	labs []*core.Lab
}

var assocs = []int{1, 2, 4}

func (w *staticExplore) defaultSetups() int { return 5 }

func (w *staticExplore) setup(context.Context) error {
	labs, err := buildLabs(nil)
	w.labs = labs
	return err
}

func (w *staticExplore) round(rng *rand.Rand) []op {
	sizes := shuffledSizes(rng)
	return []op{func(ctx context.Context, tr *tracer) error { return w.op(ctx, tr, sizes) }}
}

func (w *staticExplore) op(ctx context.Context, tr *tracer, sizes []uint32) error {
	for _, lab := range w.labs {
		name := lab.Bench.Name
		sp := tr.begin("reset")
		lab.ResetArtifacts()
		tr.end(sp)
		sp = tr.begin("alloc.pareto")
		fronts, err := lab.SweepPareto(ctx)
		tr.end(sp)
		if err != nil {
			return err
		}
		// The pipeline was fresh before the sweep, so its analysis time is
		// the part of the sweep spent in the WCET layer.
		tr.add("wcet.spm_nested_ms", float64(lab.Pipe.Stats().AnalyzeTime)/float64(time.Millisecond))
		if err := w.ref.fronts(fronts); err != nil {
			return err
		}
		for _, size := range sizes {
			for _, assoc := range assocs {
				cfg := cache.Config{Size: size, Assoc: assoc}
				sp = tr.begin("wcet.cache")
				r, err := lab.Pipe.AnalyzeUnits(ctx, nil, 0, nil, wcet.Options{Cache: &cfg, StackBound: lab.StackBound})
				tr.end(sp)
				if err != nil {
					return err
				}
				if err := w.ref.cacheBound(name, size, assoc, r.WCET); err != nil {
					return err
				}
			}
		}
		if tr != nil {
			if sims := lab.Pipe.Stats().Sims; sims != 0 {
				return fmt.Errorf("layer check: %s ran %d simulations in a static_explore op, want 0", name, sims)
			}
		}
	}
	return nil
}

func (w *staticExplore) probeStore() *store.Store { return nil }
func (w *staticExplore) keepAlive()               { runtime.KeepAlive(w.labs) }
func (w *staticExplore) close()                   {}

// sweepRequest is one /v1/sweep request of warm_restart.
type sweepRequest struct{ key, target string }

var sweepRequests = func() []sweepRequest {
	var out []sweepRequest
	for _, b := range benchprog.All() {
		for _, branch := range []string{"spm", "cache", "pareto"} {
			out = append(out, sweepRequest{
				key:    b.Name + "/" + branch,
				target: "/v1/sweep?bench=" + b.Name + "&branch=" + branch,
			})
		}
	}
	return out
}()

// warmRestart is a restarted server over a warm artifact store: per
// restart, a fresh service answers the nine sweep requests twice, first
// from disk and then from memory, computing nothing.
type warmRestart struct {
	ref     *reference
	workDir string
	dir     string
	st      *store.Store
	srv     *service.Server
}

func (w *warmRestart) defaultSetups() int { return 5 }

// setup fills a new store with every sweep the requests ask for, checking
// the sweeps against the paper_cold and static_explore references.
func (w *warmRestart) setup(ctx context.Context) error {
	dir, err := os.MkdirTemp(w.workDir, "perfbench-store-")
	if err != nil {
		return err
	}
	w.dir = dir
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	labs, err := buildLabs(st)
	if err != nil {
		return err
	}
	for _, lab := range labs {
		name := lab.Bench.Name
		spms, err := lab.SweepScratchpad(ctx)
		if err != nil {
			return err
		}
		caches, err := lab.SweepCache(ctx)
		if err != nil {
			return err
		}
		for i, size := range core.PaperSizes {
			if err := w.ref.paper(name, "spm", size, measuredRow(spms[i])); err != nil {
				return err
			}
			if err := w.ref.paper(name, "cache", size, measuredRow(caches[i])); err != nil {
				return err
			}
		}
		fronts, err := lab.SweepPareto(ctx)
		if err != nil {
			return err
		}
		if err := w.ref.fronts(fronts); err != nil {
			return err
		}
	}
	w.st = st
	return nil
}

// restartsPerOp is how many fresh servers one op starts. One restart takes
// about 15 ms, so a 30 s run of single restarts holds ~1400 ops and puts
// op_tail_ms above p99, where a few ms of host stall decide it; with four
// restarts per op the tail sits near p97.5 of ~450 ops.
const restartsPerOp = 4

func (w *warmRestart) round(rng *rand.Rand) []op {
	order := rng.Perm(len(sweepRequests))
	return []op{func(ctx context.Context, tr *tracer) error {
		for i := 0; i < restartsPerOp; i++ {
			if err := w.restart(ctx, tr, order); err != nil {
				return err
			}
		}
		return nil
	}}
}

func (w *warmRestart) restart(ctx context.Context, tr *tracer, order []int) error {
	var start snapshot
	if tr != nil {
		start = takeSnapshot()
	}
	sp := tr.begin("service.new")
	srv := service.New(service.Config{Store: w.st, Workers: 1, LabWorkers: 1})
	tr.end(sp)
	h := srv.Handler()
	for pass, name := range []string{"service.disk_pass", "service.memory_pass"} {
		var before snapshot
		if tr != nil && pass == 0 {
			before = takeSnapshot()
		}
		sp := tr.begin(name)
		for _, i := range order {
			req := sweepRequests[i]
			rsp := tr.begin("service.request")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, req.target, nil).WithContext(ctx))
			tr.end(rsp)
			if rec.Code != http.StatusOK {
				tr.end(sp)
				return fmt.Errorf("%s: status %d: %s", req.target, rec.Code, strings.TrimSpace(rec.Body.String()))
			}
			sum := sha256.Sum256(rec.Body.Bytes())
			if err := w.ref.digest(req.key, hex.EncodeToString(sum[:])); err != nil {
				tr.end(sp)
				return err
			}
		}
		tr.end(sp)
		if tr != nil && pass == 0 {
			d := before.deltaTo(takeSnapshot())
			if d["disk.misses"] != 0 || d["disk.hits"] == 0 {
				return fmt.Errorf("layer check: disk pass had %v disk hits and %v misses, want all hits", d["disk.hits"], d["disk.misses"])
			}
		}
	}
	if tr != nil {
		if d := start.deltaTo(takeSnapshot()); d["stage.runs"] != 0 {
			return fmt.Errorf("layer check: warm_restart op computed %v stages, want 0", d["stage.runs"])
		}
	}
	w.srv = srv
	return nil
}

func (w *warmRestart) probeStore() *store.Store { return w.st }
func (w *warmRestart) keepAlive()               { runtime.KeepAlive(w.srv) }

func (w *warmRestart) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}
