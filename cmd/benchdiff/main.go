// Command benchdiff compares two benchjson snapshots and reports per-
// benchmark deltas as a markdown table, for CI perf gates and local
// before/after checks:
//
//	make bench-json                        # writes BENCH_local.json
//	... change code ...
//	go test -run='^$' -bench=. -benchmem -benchtime=1x . | benchjson > new.json
//	benchdiff BENCH_local.json new.json
//
// A benchmark regresses when ns/op, B/op or allocs/op grows by more than
// the noise threshold (-threshold, percent, default 25). Any regression
// makes the exit status 1, so CI can gate on it; bad input exits 2. Every
// metric cell is filled and the verdict names each regressing metric; the
// summary counts regressing benchmarks, one per row.
// Benchmarks present in only one snapshot are listed but never fatal —
// new and deleted benchmarks are normal PR traffic.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

type result struct {
	Name        string  `json:"name"`
	Iterations  uint64  `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type snapshot struct {
	Benchmarks []result `json:"benchmarks"`
}

func load(path string) (map[string]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	out := make(map[string]result, len(snap.Benchmarks))
	for _, b := range snap.Benchmarks {
		out[b.Name] = b
	}
	return out, nil
}

// pct is the relative change from old to new in percent; 0 when old is
// not positive (no baseline to compare against).
func pct(old, new float64) float64 {
	if old <= 0 {
		return 0
	}
	return (new - old) / old * 100
}

// cell renders one metric column: old → new with the signed delta.
func cell(old, new float64) string {
	return fmt.Sprintf("%.4g → %.4g (%+.1f%%)", old, new, pct(old, new))
}

// run compares the two snapshots and writes the report; the return value
// is the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 25, "noise threshold in percent; growth beyond it is a regression")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: benchdiff [-threshold PCT] old.json new.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	old, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	new, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}

	var names []string
	for name := range old {
		if _, ok := new[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	fmt.Fprintf(stdout, "| benchmark | ns/op | B/op | allocs/op | verdict |\n")
	fmt.Fprintf(stdout, "|---|---|---|---|---|\n")
	regressions := 0
	for _, name := range names {
		o, n := old[name], new[name]
		type metric struct {
			label    string
			old, new float64
			have     bool
		}
		metrics := []metric{
			{"ns/op", o.NsPerOp, n.NsPerOp, true},
			{"B/op", float64(o.BytesPerOp), float64(n.BytesPerOp), o.BytesPerOp >= 0 && n.BytesPerOp >= 0},
			{"allocs/op", float64(o.AllocsPerOp), float64(n.AllocsPerOp), o.AllocsPerOp >= 0 && n.AllocsPerOp >= 0},
		}
		verdict := "ok"
		cells := make([]string, len(metrics))
		var regressed []string
		for i, m := range metrics {
			if !m.have {
				cells[i] = "n/a"
				continue
			}
			cells[i] = cell(m.old, m.new)
			if pct(m.old, m.new) > *threshold {
				regressed = append(regressed, fmt.Sprintf("%s %+.1f%%", m.label, pct(m.old, m.new)))
			}
		}
		if len(regressed) > 0 {
			verdict = fmt.Sprintf("**regression** (%s > %.0f%%)", strings.Join(regressed, ", "), *threshold)
			regressions++
		}
		fmt.Fprintf(stdout, "| %s | %s | %s | %s | %s |\n", name, cells[0], cells[1], cells[2], verdict)
	}

	var added, removed []string
	for name := range new {
		if _, ok := old[name]; !ok {
			added = append(added, name)
		}
	}
	for name := range old {
		if _, ok := new[name]; !ok {
			removed = append(removed, name)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	if len(added) > 0 {
		fmt.Fprintf(stdout, "\nnew benchmarks (no baseline): %v\n", added)
	}
	if len(removed) > 0 {
		fmt.Fprintf(stdout, "\nremoved benchmarks: %v\n", removed)
	}

	if regressions > 0 {
		fmt.Fprintf(stdout, "\n%d regression(s) beyond %.0f%% threshold\n", regressions, *threshold)
		return 1
	}
	fmt.Fprintf(stdout, "\nno regressions beyond %.0f%% threshold (%d benchmark(s) compared)\n", *threshold, len(names))
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
