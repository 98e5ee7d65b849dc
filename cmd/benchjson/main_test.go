package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseKeepsCustomMetrics(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: repro
BenchmarkSimulate/G.721/nospm-2         	      20	  46579435 ns/op	        31.16 Minstr/s	 1234 B/op	       5 allocs/op
BenchmarkFig3aG721Scratchpad-2   	       1	 509650900 ns/op	    123456 wcet8k-cycles	         0.8125 spm-ratio-8k	 8071952 B/op	   20601 allocs/op
BenchmarkTable2Benchmarks-2   	      10	    100 ns/op
BenchmarkDelta-2   	       3	    7.5 ns/op	        -1.500 gain
PASS
ok  	repro	4.622s
`
	got, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []result{
		{Name: "BenchmarkDelta", Iterations: 3, NsPerOp: 7.5, BytesPerOp: -1, AllocsPerOp: -1,
			Metrics: map[string]float64{"gain": -1.5}},
		{Name: "BenchmarkFig3aG721Scratchpad", Iterations: 1, NsPerOp: 509650900, BytesPerOp: 8071952, AllocsPerOp: 20601,
			Metrics: map[string]float64{"wcet8k-cycles": 123456, "spm-ratio-8k": 0.8125}},
		{Name: "BenchmarkSimulate/G.721/nospm", Iterations: 20, NsPerOp: 46579435, BytesPerOp: 1234, AllocsPerOp: 5,
			Metrics: map[string]float64{"Minstr/s": 31.16}},
		{Name: "BenchmarkTable2Benchmarks", Iterations: 10, NsPerOp: 100, BytesPerOp: -1, AllocsPerOp: -1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parse:\n got  %+v\n want %+v", got, want)
	}
}
