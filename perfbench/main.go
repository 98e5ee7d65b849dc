// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload as a closed loop with a single client for a fixed time, checks
// every op's outputs against a reference recorded from a known-good build,
// and prints its metrics as one JSON object on the last line of standard
// output. See README.md for the workloads and what each metric gates.
//
//	perfbench -repo . --workload paper_cold --seed 1 --seconds 20 --trace 0
//
// With --trace 1 the run alternates untraced and traced rounds and reports
// per-layer metrics instead of the end-to-end ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// repo is the repository root: the golden files are read from it and,
	// unless workDir is set, scratch files go under its .bench_build.
	repo    string
	workDir string
	// rounds and setups, when positive, replace running for seconds and
	// the workload's number of set-ups (the smoke test uses them).
	rounds int
	setups int
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is printed before the result so that every number can be
// rechecked: where it was measured, on which code and seed, and how the
// tail percentile was chosen.
type runInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Traced     bool    `json:"traced"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Ops        int     `json:"ops"`
	TracedOps  int     `json:"traced_ops,omitempty"`
	TailPct    float64 `json:"op_tail_percentile"`
	TailBeyond int     `json:"op_tail_ops_beyond"`
	Setups     int     `json:"setups"`
	// CalibrationMS is the calibration kernel's median time in the run;
	// every reported time is the measured wall time × calRefMS /
	// CalibrationMS.
	CalibrationMS float64  `json:"calibration_ms"`
	SpansFile     string   `json:"spans_file,omitempty"`
	Failures      []string `json:"failures,omitempty"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (capacity and request order)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&cfg.repo, "repo", ".", "repository root")
	record := flag.Bool("record", false, "record the reference outputs into testdata/reference.json and exit")
	flag.Parse()
	cfg.trace = trace == 1
	if *record {
		if err := recordReference(cfg.repo, filepath.Join(cfg.repo, "perfbench", "testdata", "reference.json")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, info, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]runInfo{"run": info}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}

// opSample is one timed op, in measured wall-clock ms.
type opSample struct {
	ms     float64
	traced bool
	failed bool
}

// run sets the workload up, runs its measured phase and computes the
// metrics. Progress and failures go to logw.
func run(cfg config, logw io.Writer) (result, runInfo, error) {
	ref, err := loadReference(cfg.repo)
	if err != nil {
		return result{}, runInfo{}, err
	}
	if cfg.workDir == "" {
		cfg.workDir = filepath.Join(cfg.repo, ".bench_build")
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return result{}, runInfo{}, err
	}
	w, err := newWorkload(cfg.workload, ref, cfg.workDir)
	if err != nil {
		return result{}, runInfo{}, err
	}
	defer w.close()
	if cfg.setups <= 0 {
		cfg.setups = w.defaultSetups()
	}
	info := runInfo{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Traced:     cfg.trace,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitID(cfg.repo),
		Setups:     cfg.setups,
	}
	ctx := context.Background()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// cals holds the calibration kernel's times: one before each set-up
	// and one before each op.
	var cals []float64
	setupMS := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		// The previous set-up is released untimed.
		w.close()
		runtime.GC()
		cals = append(cals, calibrate())
		t0 := time.Now()
		sp := tr.begin("setup")
		err := w.setup(ctx)
		tr.end(sp)
		setupMS = append(setupMS, msSince(t0))
		if err != nil {
			return result{}, info, fmt.Errorf("%s: setup: %w", cfg.workload, err)
		}
	}
	if cfg.trace {
		if err := probeLabBuilds(tr, w.probeStore(), 5); err != nil {
			return result{}, info, err
		}
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	var samples []opSample
	var acc counterDelta
	var failures []string
	done := 0
	start := time.Now()
	for round := 0; ; round++ {
		if cfg.rounds > 0 {
			if round >= cfg.rounds {
				break
			}
		} else if time.Since(start).Seconds() >= cfg.seconds && done >= minOps {
			break
		}
		traced := cfg.trace && round%2 == 1
		for _, op := range w.round(rng) {
			// The previous op's garbage is collected here, untimed, so that
			// every op starts from a collected heap.
			runtime.GC()
			cals = append(cals, calibrate())
			var before snapshot
			var optr *tracer
			var sp int
			if traced {
				optr = tr
				before = takeSnapshot()
				sp = tr.begin("op")
			}
			t0 := time.Now()
			err := op(ctx, optr)
			ms := msSince(t0)
			if traced {
				tr.end(sp)
				acc.add(before, takeSnapshot())
			}
			samples = append(samples, opSample{ms: ms, traced: traced, failed: err != nil})
			if err != nil {
				failures = append(failures, err.Error())
				fmt.Fprintf(logw, "perfbench: %s op %d failed: %v\n", cfg.workload, len(samples), err)
			} else {
				done++
			}
		}
	}
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	w.keepAlive()

	res := result{Attempted: len(samples), Metrics: map[string]metric{}}
	for _, s := range samples {
		if s.failed {
			res.Failed++
		}
	}
	info.Ops = len(samples)
	if len(failures) > 10 {
		failures = failures[:10]
	}
	info.Failures = failures

	info.CalibrationMS = median(cals)
	scale := calRefMS / info.CalibrationMS
	var untraced, traced []float64
	var untracedSum float64
	for _, s := range samples {
		if s.failed {
			continue
		}
		ms := s.ms * scale
		if s.traced {
			traced = append(traced, ms)
		} else {
			untraced = append(untraced, ms)
			untracedSum += ms
		}
	}
	setupS := median(setupMS) * scale / 1e3
	if cfg.trace {
		info.TracedOps = acc.ops
		layer, checkFailures := layerMetrics(cfg.workload, tr, &acc)
		for _, f := range checkFailures {
			fmt.Fprintf(logw, "perfbench: layer check failed: %s\n", f)
		}
		info.Failures = append(info.Failures, checkFailures...)
		layer["trace.op_p50_ms"] = metric{median(traced), "ms"}
		layer["trace.overhead_ms"] = metric{median(traced) - median(untraced), "ms"}
		layer["host.calibration_ms"] = metric{info.CalibrationMS, "ms"}
		res.Metrics = layer
		res.Correct = res.Failed == 0 && len(checkFailures) == 0 && acc.ops > 0
		if f := filepath.Join(cfg.workDir, "spans-"+cfg.workload+".json"); tr.write(f) == nil {
			info.SpansFile = f
		}
	} else {
		tail, pct, beyond := tailLatency(untraced)
		info.TailPct, info.TailBeyond = pct, beyond
		res.Metrics["setup_s"] = metric{setupS, "s"}
		res.Metrics["op_p50_ms"] = metric{median(untraced), "ms"}
		res.Metrics["op_tail_ms"] = metric{tail, "ms"}
		res.Metrics["ops_per_s"] = metric{float64(len(untraced)) / (untracedSum / 1e3), "1/s"}
		res.Metrics["heap_live_mb"] = metric{float64(mem.HeapAlloc) / 1e6, "MB"}
		res.Correct = res.Failed == 0 && len(untraced) > 0
	}
	fmt.Fprintf(logw, "perfbench: %s seed %d: %d ops (%d failed), setup median %.3f s of %d\n",
		cfg.workload, cfg.seed, res.Attempted, res.Failed, setupS, len(setupMS))
	if !cfg.trace {
		fmt.Fprintf(logw, "perfbench: op_p50_ms %.2f, op_tail_ms %.2f is p%.1f of %d ops (%d beyond)\n",
			res.Metrics["op_p50_ms"].Value, res.Metrics["op_tail_ms"].Value, info.TailPct, len(untraced), info.TailBeyond)
	}
	return res, info, nil
}

// minOps keeps at least ten ops beyond the reported tail.
const minOps = 11

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLatency returns the latency at the highest percentile that has at
// least ten samples beyond it (the largest sample when there are fewer
// than eleven), that percentile, and the number of samples beyond it.
func tailLatency(xs []float64) (value, pct float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	if i < 0 {
		i = len(s) - 1
	}
	return s[i], 100 * float64(i+1) / float64(len(s)), len(s) - 1 - i
}
