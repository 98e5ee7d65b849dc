package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/benchprog"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. The benchmark is
// single-threaded, so the open spans form a stack and the top of the
// stack is the parent of the next span. A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	// sums accumulates values an op measures inside a layer call that
	// the spans cannot separate, e.g. the analysis time inside a Pareto
	// sweep, or simulated instructions.
	sums map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), sums: map[string]float64{}}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartUS: t.now()})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].EndUS = t.now()
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) add(key string, v float64) {
	if t != nil {
		t.sums[key] += v
	}
}

func (t *tracer) now() float64 { return float64(time.Since(t.epoch)) / float64(time.Microsecond) }

// times returns, per span name, the summed duration and the summed self
// time (duration minus the part covered by direct children), in ms.
func (t *tracer) times() (total, self map[string]float64) {
	children := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent-1] += s.EndUS - s.StartUS
		}
	}
	total, self = map[string]float64{}, map[string]float64{}
	for i, s := range t.spans {
		d := s.EndUS - s.StartUS
		total[s.Name] += d / 1e3
		self[s.Name] += (d - children[i]) / 1e3
	}
	return total, self
}

// durations lists the durations (ms) of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, (s.EndUS-s.StartUS)/1e3)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(map[string][]span{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// snapshot holds the process-wide counters the per-layer metrics are
// built from, read from the obs registry and the Go runtime.
type snapshot map[string]float64

func takeSnapshot() snapshot {
	fams := obs.Default.Snapshot()
	get := func(name string, kv ...string) float64 {
		var sum float64
		for _, f := range fams {
			if f.Name != name {
				continue
			}
		samples:
			for _, s := range f.Samples {
				for i := 0; i+1 < len(kv); i += 2 {
					if s.Label(kv[i]) != kv[i+1] {
						continue samples
					}
				}
				if s.Hist != nil {
					sum += s.Hist.Sum
				} else {
					sum += s.Value
				}
			}
		}
		return sum
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{
		"sim.runs":        get("wcetlab_stage_runs_total", "stage", "simulate"),
		"stage.runs":      get("wcetlab_stage_runs_total"),
		"disk.hits":       get("wcetlab_stage_cache_total", "tier", "disk", "result", "hit"),
		"disk.misses":     get("wcetlab_stage_cache_total", "tier", "disk", "result", "miss"),
		"memory.hits":     get("wcetlab_stage_cache_total", "tier", "memory", "result", "hit"),
		"ctx.builds":      get("wcetlab_context_builds_total") + get("wcetlab_cache_context_builds_total"),
		"blocks.repriced": get("wcetlab_context_blocks_repriced_total"),
		"blocks":          get("wcetlab_context_blocks_total"),
		"funcs.solved":    get("wcetlab_context_funcs_solved_total"),
		"funcs":           get("wcetlab_context_funcs_total"),
		"cfuncs.rerun":    get("wcetlab_cache_context_funcs_reanalyzed_total"),
		"cfuncs":          get("wcetlab_cache_context_funcs_total"),
		"solver.hits":     get("wcetlab_solver_state_hits_total"),
		"alloc.eps":       get("wcetlab_alloc_epsilon_resolves_total"),
		"alloc.iters":     get("wcetlab_alloc_fixpoint_iterations_total"),
		"alloc.dp_cells":  get("wcetlab_alloc_dp_cells_total"),
		"ilp.nodes":       get("wcetlab_ilp_nodes_total"),
		"lp.pivots.warm":  get("wcetlab_lp_pivots_total", "mode", "warm"),
		"lp.pivots.cold":  get("wcetlab_lp_pivots_total", "mode", "cold"),
		"link.full":       get("wcetlab_link_full_total"),
		"link.delta":      get("wcetlab_link_delta_total"),
		"relocs.resolved": get("wcetlab_link_relocs_resolved_total"),
		"relocs.reused":   get("wcetlab_link_relocs_reused_total"),
		"store.reads":     get("wcetlab_store_reads_total"),
		"store.bytes":     get("wcetlab_store_read_bytes_total"),
		"mem.alloc":       float64(ms.TotalAlloc),
		"mem.gcs":         float64(ms.NumGC),
	}
}

// deltaTo returns the per-counter change from s to after.
func (s snapshot) deltaTo(after snapshot) snapshot {
	d := snapshot{}
	for k, v := range after {
		d[k] = v - s[k]
	}
	return d
}

// counterDelta sums counter deltas over the traced ops.
type counterDelta struct {
	ops int
	sum snapshot
}

func (c *counterDelta) add(before, after snapshot) {
	if c.sum == nil {
		c.sum = snapshot{}
	}
	for k, v := range before.deltaTo(after) {
		c.sum[k] += v
	}
	c.ops++
}

// ratio is num/den, 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// simShareMin is the smallest simulator share of a paper_cold op at which
// the simulator still dominates, as it does at the commit the benchmark
// was defined on (~0.96).
const simShareMin = 0.8

// layerMetrics turns the traced ops' spans and counter deltas into the
// per-layer metrics, and evaluates the one layer-share check that does not
// belong to a single op, sim.share on paper_cold. The static_explore and
// warm_restart checks run inside each traced op and fail it.
func layerMetrics(workload string, tr *tracer, acc *counterDelta) (map[string]metric, []string) {
	total, self := tr.times()
	n := float64(acc.ops)
	if n == 0 {
		n = 1
	}
	c := acc.sum
	if c == nil {
		c = snapshot{}
	}
	perOp := func(v float64) float64 { return v / n }
	simSec := self["sim"] / 1e3
	m := map[string]metric{
		"sim.self_ms":                  {perOp(self["sim"]), "ms"},
		"sim.share":                    {ratio(self["sim"], total["op"]), "ratio"},
		"sim.runs_per_op":              {perOp(c["sim.runs"]), "count"},
		"sim.minstr_per_s":             {ratio(tr.sums["sim.instrs"], simSec) / 1e6, "Minstr/s"},
		"wcet.spm_ms":                  {perOp(self["wcet.spm"] + tr.sums["wcet.spm_nested_ms"]), "ms"},
		"wcet.cache_ms":                {perOp(self["wcet.cache"]), "ms"},
		"wcet.ctx_builds":              {perOp(c["ctx.builds"]), "count"},
		"wcet.blocks_repriced_ratio":   {ratio(c["blocks.repriced"], c["blocks"]), "ratio"},
		"wcet.funcs_solved_ratio":      {ratio(c["funcs.solved"], c["funcs"]), "ratio"},
		"wcet.cache_funcs_rerun_ratio": {ratio(c["cfuncs.rerun"], c["cfuncs"]), "ratio"},
		"wcet.solver_state_hits":       {perOp(c["solver.hits"]), "count"},
		"alloc.pareto_ms":              {perOp(total["alloc.pareto"] - tr.sums["wcet.spm_nested_ms"]), "ms"},
		"alloc.epsilon_resolves":       {perOp(c["alloc.eps"]), "count"},
		"alloc.fixpoint_iterations":    {perOp(c["alloc.iters"]), "count"},
		"alloc.dp_cells":               {perOp(c["alloc.dp_cells"]), "count"},
		"ilp.nodes":                    {perOp(c["ilp.nodes"]), "count"},
		"lp.pivots_warm":               {perOp(c["lp.pivots.warm"]), "count"},
		"lp.pivots_cold":               {perOp(c["lp.pivots.cold"]), "count"},
		"link.self_ms":                 {perOp(self["link"]), "ms"},
		"link.delta_ratio":             {ratio(c["link.delta"], c["link.delta"]+c["link.full"]), "ratio"},
		"link.relocs_resolved_ratio":   {ratio(c["relocs.resolved"], c["relocs.resolved"]+c["relocs.reused"]), "ratio"},
		"cc.compile_ms":                {median(tr.durations("cc.compile")), "ms"},
		"core.lab_build_ms":            {median(tr.durations("core.lab_build")), "ms"},
		"store.reads":                  {perOp(c["store.reads"]), "count"},
		"store.read_bytes":             {perOp(c["store.bytes"]), "B"},
		"pipeline.disk_hit_ratio":      {ratio(c["disk.hits"], c["disk.hits"]+c["disk.misses"]), "ratio"},
		"pipeline.memory_hits":         {perOp(c["memory.hits"]), "count"},
		"pipeline.computes":            {perOp(c["stage.runs"]), "count"},
		"service.disk_pass_ms":         {perOp(total["service.disk_pass"]), "ms"},
		"service.memory_pass_ms":       {perOp(total["service.memory_pass"]), "ms"},
		"runtime.alloc_mb_per_op":      {perOp(c["mem.alloc"]) / 1e6, "MB"},
		"runtime.gc_per_op":            {perOp(c["mem.gcs"]), "count"},
	}
	var failures []string
	if s := m["sim.share"].Value; workload == "paper_cold" && s < simShareMin {
		failures = append(failures, fmt.Sprintf("sim.share %.3f < %.2f on paper_cold", s, simShareMin))
	}
	m["checks.failed"] = metric{float64(len(failures)), "count"}
	return m, failures
}

// probeLabBuilds times the two calls every lab construction makes: the
// compile of the three benchmark sources, and core.NewLabWithStore
// (compile plus profile) against the workload's store.
func probeLabBuilds(tr *tracer, st *store.Store, reps int) error {
	for i := 0; i < reps; i++ {
		sp := tr.begin("cc.compile")
		for _, b := range benchprog.All() {
			if _, err := cc.Compile(b.Source); err != nil {
				return fmt.Errorf("compile %s: %w", b.Name, err)
			}
		}
		tr.end(sp)
		sp = tr.begin("core.lab_build")
		for _, b := range benchprog.All() {
			if _, err := core.NewLabWithStore(b, st); err != nil {
				return err
			}
		}
		tr.end(sp)
	}
	return nil
}

// commitID names the measured code: the VCS revision when the binary was
// built inside a git checkout, and always a digest of the Go sources, so
// a result from a checkout without git history still names its code.
func commitID(repo string) string {
	id := "src:" + sourceDigest(repo)
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			id = rev + dirty + " " + id
		}
	}
	return id
}

func sourceDigest(repo string) string {
	h := sha256.New()
	for _, top := range []string{"go.mod", "internal", "perfbench"} {
		root := filepath.Join(repo, top)
		_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return nil
			}
			if !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".mod") && !strings.HasSuffix(path, ".json") {
				return nil
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return nil
			}
			rel, _ := filepath.Rel(repo, path)
			fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
			h.Write(b)
			return nil
		})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
