package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseline = `{"benchmarks": [
  {"name": "BenchmarkFast", "iterations": 10, "ns_per_op": 1000, "bytes_per_op": 512, "allocs_per_op": 8},
  {"name": "BenchmarkSlow", "iterations": 1, "ns_per_op": 500000, "bytes_per_op": 4096, "allocs_per_op": 100},
  {"name": "BenchmarkGone", "iterations": 1, "ns_per_op": 42, "bytes_per_op": -1, "allocs_per_op": -1}
]}`

// TestNoRegression: deltas within the threshold exit 0 and the table
// says ok; new/removed benchmarks are reported but never fatal.
func TestNoRegression(t *testing.T) {
	old := write(t, "old.json", baseline)
	new := write(t, "new.json", `{"benchmarks": [
	  {"name": "BenchmarkFast", "iterations": 10, "ns_per_op": 1100, "bytes_per_op": 512, "allocs_per_op": 8},
	  {"name": "BenchmarkSlow", "iterations": 1, "ns_per_op": 450000, "bytes_per_op": 4096, "allocs_per_op": 100},
	  {"name": "BenchmarkNew", "iterations": 1, "ns_per_op": 7, "bytes_per_op": -1, "allocs_per_op": -1}
	]}`)
	var out, errb bytes.Buffer
	if code := run([]string{old, new}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0 (out %s err %s)", code, out.String(), errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "| benchmark | ns/op | B/op | allocs/op | verdict |") {
		t.Errorf("missing markdown header:\n%s", s)
	}
	if !strings.Contains(s, "BenchmarkNew") || !strings.Contains(s, "BenchmarkGone") {
		t.Errorf("added/removed benchmarks not reported:\n%s", s)
	}
	if strings.Contains(s, "**regression**") {
		t.Errorf("false regression:\n%s", s)
	}
	if !strings.Contains(s, "no regressions beyond 25%") {
		t.Errorf("missing all-clear summary:\n%s", s)
	}
}

// TestDetectsNsRegression: a 2x ns/op growth on one benchmark exits 1
// and names the offender.
func TestDetectsNsRegression(t *testing.T) {
	old := write(t, "old.json", baseline)
	new := write(t, "new.json", `{"benchmarks": [
	  {"name": "BenchmarkFast", "iterations": 10, "ns_per_op": 2000, "bytes_per_op": 512, "allocs_per_op": 8},
	  {"name": "BenchmarkSlow", "iterations": 1, "ns_per_op": 500000, "bytes_per_op": 4096, "allocs_per_op": 100}
	]}`)
	var out bytes.Buffer
	if code := run([]string{old, new}, &out, &out); code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "**regression**") || !strings.Contains(s, "ns/op +100.0%") {
		t.Errorf("regression row missing:\n%s", s)
	}
	if !strings.Contains(s, "1 regression(s)") {
		t.Errorf("summary count wrong:\n%s", s)
	}
}

// TestThresholdFlag: the same delta passes a loose threshold and fails a
// tight one.
func TestThresholdFlag(t *testing.T) {
	old := write(t, "old.json", `{"benchmarks": [
	  {"name": "BenchmarkX", "iterations": 1, "ns_per_op": 100, "bytes_per_op": -1, "allocs_per_op": -1}]}`)
	new := write(t, "new.json", `{"benchmarks": [
	  {"name": "BenchmarkX", "iterations": 1, "ns_per_op": 140, "bytes_per_op": -1, "allocs_per_op": -1}]}`)
	var out bytes.Buffer
	if code := run([]string{"-threshold", "50", old, new}, &out, &out); code != 0 {
		t.Fatalf("40%% growth failed a 50%% threshold: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"-threshold", "10", old, new}, &out, &out); code != 1 {
		t.Fatalf("40%% growth passed a 10%% threshold: exit %d\n%s", code, out.String())
	}
}

// TestAllocRegression: B/op and allocs/op growth count too; metrics
// recorded as -1 (no -benchmem) are skipped, not compared.
func TestAllocRegression(t *testing.T) {
	old := write(t, "old.json", `{"benchmarks": [
	  {"name": "BenchmarkY", "iterations": 1, "ns_per_op": 100, "bytes_per_op": 1000, "allocs_per_op": 10}]}`)
	new := write(t, "new.json", `{"benchmarks": [
	  {"name": "BenchmarkY", "iterations": 1, "ns_per_op": 100, "bytes_per_op": 1000, "allocs_per_op": 30}]}`)
	var out bytes.Buffer
	if code := run([]string{old, new}, &out, &out); code != 1 {
		t.Fatalf("3x allocs/op growth passed: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "allocs/op") {
		t.Errorf("verdict does not name allocs/op:\n%s", out.String())
	}

	// Same shape but the old snapshot lacks -benchmem: no comparison.
	old2 := write(t, "old2.json", `{"benchmarks": [
	  {"name": "BenchmarkY", "iterations": 1, "ns_per_op": 100, "bytes_per_op": -1, "allocs_per_op": -1}]}`)
	out.Reset()
	if code := run([]string{old2, new}, &out, &out); code != 0 {
		t.Fatalf("n/a metric treated as regression: exit %d\n%s", code, out.String())
	}
}

// TestEveryRegressingMetricNamed: a row regressing on B/op and allocs/op
// at once fills all three cells, names both metrics in its verdict and
// counts as one regression.
func TestEveryRegressingMetricNamed(t *testing.T) {
	old := write(t, "old.json", `{"benchmarks": [
	  {"name": "BenchmarkZ", "iterations": 1, "ns_per_op": 100, "bytes_per_op": 1000, "allocs_per_op": 10}]}`)
	new := write(t, "new.json", `{"benchmarks": [
	  {"name": "BenchmarkZ", "iterations": 1, "ns_per_op": 100, "bytes_per_op": 2000, "allocs_per_op": 30}]}`)
	var out bytes.Buffer
	if code := run([]string{old, new}, &out, &out); code != 1 {
		t.Fatalf("B/op and allocs/op growth passed: exit %d\n%s", code, out.String())
	}
	s := out.String()
	want := "| BenchmarkZ | 100 → 100 (+0.0%) | 1000 → 2000 (+100.0%) | 10 → 30 (+200.0%) | " +
		"**regression** (B/op +100.0%, allocs/op +200.0% > 25%) |"
	if !strings.Contains(s, want) {
		t.Errorf("row is not\n%s\nin:\n%s", want, s)
	}
	if !strings.Contains(s, "\n1 regression(s)") {
		t.Errorf("row not counted exactly once:\n%s", s)
	}
}

// TestBadInput: missing files and malformed JSON exit 2.
func TestBadInput(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"/nonexistent/a.json", "/nonexistent/b.json"}, &out, &out); code != 2 {
		t.Fatalf("missing file: exit %d, want 2", code)
	}
	bad := write(t, "bad.json", "{")
	good := write(t, "good.json", `{"benchmarks": []}`)
	if code := run([]string{bad, good}, &out, &out); code != 2 {
		t.Fatalf("malformed JSON: exit %d, want 2", code)
	}
	if code := run([]string{good}, &out, &out); code != 2 {
		t.Fatalf("missing arg: exit %d, want 2", code)
	}
}
