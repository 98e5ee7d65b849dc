// Command benchjson converts `go test -bench` text output on stdin into a
// machine-readable JSON report on stdout, for CI trend tracking and ad-hoc
// comparison without scraping the bench text by hand:
//
//	go test -run='^$' -bench=. -benchmem -benchtime=1x . | benchjson
//
// The report is an object with one sorted entry per benchmark:
//
//	{"benchmarks": [{"name": "BenchmarkFig3aG721Scratchpad",
//	                 "iterations": 1, "ns_per_op": 123456.0,
//	                 "bytes_per_op": 4096, "allocs_per_op": 17,
//	                 "metrics": {"wcet8k-cycles": 1234567}}, ...]}
//
// bytes_per_op and allocs_per_op are -1 when the run lacked -benchmem.
// metrics holds every other value/unit pair on the line, such as those a
// benchmark reports with b.ReportMetric; it is omitted when there are none.
// Non-benchmark lines (PASS, ok, goos/goarch headers) are ignored, so the
// raw `go test` stream pipes straight in. `make bench-json` wires this up
// and writes BENCH_local.json.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// benchLine matches one result row: name (with the -GOMAXPROCS suffix
// stripped), iteration count, ns/op, and whatever trailing pairs follow.
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

// trailingPair matches one value/unit pair after ns/op: the -benchmem
// extras ("123 B/op", "4 allocs/op") and b.ReportMetric output
// ("31.16 Minstr/s").
var trailingPair = regexp.MustCompile(`(-?[\d.]+) (\S+)`)

type result struct {
	Name        string             `json:"name"`
	Iterations  uint64             `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// parse reads `go test -bench` output and returns its result rows sorted
// by name.
func parse(r io.Reader) ([]result, error) {
	var results []result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, err := strconv.ParseUint(m[2], 10, 64)
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		r := result{Name: m[1], Iterations: iters, NsPerOp: ns, BytesPerOp: -1, AllocsPerOp: -1}
		for _, pair := range trailingPair.FindAllStringSubmatch(m[4], -1) {
			v, err := strconv.ParseFloat(pair[1], 64)
			if err != nil {
				continue
			}
			switch unit := pair[2]; unit {
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = v
			}
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	return results, nil
}

func main() {
	results, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string][]result{"benchmarks": results}); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
