package obs

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("wcetlab_test_total", "help", "k", "v")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels resolves to the same series regardless of pair order.
	c2 := r.Counter("wcetlab_multi_total", "help", "a", "1", "b", "2")
	c3 := r.Counter("wcetlab_multi_total", "help", "b", "2", "a", "1")
	if c2 != c3 {
		t.Fatal("label order changed series identity")
	}
	g := r.Gauge("wcetlab_test_gauge", "help")
	g.Add(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("wcetlab_x_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on type mismatch")
		}
	}()
	r.Gauge("wcetlab_x_total", "h")
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("wcetlab_lat_seconds", "h", []float64{0.01, 0.1, 1})
	for i := 0; i < 90; i++ {
		h.Observe(0.005) // first bucket
	}
	for i := 0; i < 9; i++ {
		h.Observe(0.05) // second bucket
	}
	h.Observe(5) // +Inf bucket

	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	wantSum := 90*0.005 + 9*0.05 + 5
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %g, want %g", s.Sum, wantSum)
	}
	if s.Max != 5 {
		t.Fatalf("max = %g, want 5", s.Max)
	}
	if got := []uint64{s.Counts[0], s.Counts[1], s.Counts[2], s.Counts[3]}; got[0] != 90 || got[1] != 9 || got[2] != 0 || got[3] != 1 {
		t.Fatalf("bucket counts = %v", got)
	}
	// Quantiles interpolate inside their bucket: p50 is rank 50 of the 90
	// observations spread over (0, 0.01]; p95 is rank 5 of 9 over
	// (0.01, 0.1]; p99 the top of that bucket; p100 the +Inf bucket, whose
	// upper edge is the exact max.
	for _, c := range []struct{ q, want float64 }{
		{0.50, 0.01 * 50 / 90},
		{0.95, 0.01 + 0.09*5/9},
		{0.99, 0.1},
		{1, 5},
	} {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("p%g = %g, want %g", 100*c.q, got, c.want)
		}
	}
	var empty HistogramSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %g, want 0", q)
	}
}

// TestQuantileKnownDistributions checks the interpolated quantiles against
// distributions whose true quantiles are known.
func TestQuantileKnownDistributions(t *testing.T) {
	bounds := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
	r := NewRegistry()

	// Uniform on (0, 1]: the q-quantile is q, up to one sample's width.
	uni := r.Histogram("wcetlab_uniform_seconds", "h", bounds)
	for i := 1; i <= 1000; i++ {
		uni.Observe(float64(i) / 1000)
	}
	for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95, 0.99} {
		if got := uni.Snapshot().Quantile(q); math.Abs(got-q) > 0.001 {
			t.Errorf("uniform p%g = %g, want %g", 100*q, got, q)
		}
	}

	// Point mass at 0.33: low quantiles stay inside its bucket (0.3, 0.4];
	// from the median up the max cap pins them to the point itself.
	point := r.Histogram("wcetlab_point_seconds", "h", bounds)
	for i := 0; i < 100; i++ {
		point.Observe(0.33)
	}
	ps := point.Snapshot()
	if got := ps.Quantile(0.01); got <= 0.3 || got > 0.33 {
		t.Errorf("point-mass p1 = %g, want within (0.3, 0.33]", got)
	}
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := ps.Quantile(q); got != 0.33 {
			t.Errorf("point-mass p%g = %g, want 0.33", 100*q, got)
		}
	}

	// Everything beyond the last bound: quantiles spread between that bound
	// and the exact max.
	inf := r.Histogram("wcetlab_inf_seconds", "h", bounds)
	for _, v := range []float64{2, 3, 4, 5} {
		inf.Observe(v)
	}
	s := inf.Snapshot()
	if got := s.Quantile(0.5); got != 3 {
		t.Errorf("+Inf-only p50 = %g, want 3 (halfway from the last bound 1 to max 5)", got)
	}
	if got := s.Quantile(1); got != 5 {
		t.Errorf("+Inf-only p100 = %g, want the max 5", got)
	}

	var empty HistogramSnapshot
	if got := empty.Quantile(0.99); got != 0 {
		t.Errorf("empty p99 = %g, want 0", got)
	}
}

func TestQuantileCappedByMax(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("wcetlab_cap_seconds", "h", []float64{1, 10})
	h.Observe(2) // bucket le=10, but true max is 2
	s := h.Snapshot()
	if q := s.Quantile(0.95); q != 2 {
		t.Fatalf("p95 = %g, want capped at max 2", q)
	}
}

// TestPrometheusExposition parses the writer's own output line by line:
// every sample line must be name{labels} value, histogram buckets must be
// cumulative and end at _count, and _sum must be consistent.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("wcetlab_runs_total", "Stage runs.", "stage", "analyze", "bench", `we"ird\`).Add(3)
	r.Gauge("wcetlab_in_flight", "In-flight requests.").Set(2)
	h := r.Histogram("wcetlab_stage_seconds", "Stage latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(7)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	types := map[string]string{}
	var lastCum = map[string]uint64{}
	sums := map[string]float64{}
	counts := map[string]uint64{}
	infs := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("bad TYPE line: %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("unbalanced label braces: %q", line)
			}
			name = key[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suf); ok && types[b] == "histogram" {
				base = b
				switch suf {
				case "_bucket":
					if uint64(val) < lastCum[base] {
						t.Fatalf("non-cumulative bucket in %q", line)
					}
					lastCum[base] = uint64(val)
					if strings.Contains(key, `le="+Inf"`) {
						infs[base] = uint64(val)
					}
				case "_sum":
					sums[base] = val
				case "_count":
					counts[base] = uint64(val)
				}
			}
		}
		if base == name {
			if _, ok := types[name]; !ok {
				t.Fatalf("sample %q missing TYPE line", line)
			}
		}
	}
	if types["wcetlab_runs_total"] != "counter" || types["wcetlab_in_flight"] != "gauge" || types["wcetlab_stage_seconds"] != "histogram" {
		t.Fatalf("TYPE lines wrong: %v", types)
	}
	if counts["wcetlab_stage_seconds"] != 3 {
		t.Fatalf("_count = %d, want 3", counts["wcetlab_stage_seconds"])
	}
	if infs["wcetlab_stage_seconds"] != counts["wcetlab_stage_seconds"] {
		t.Fatalf("+Inf bucket %d != _count %d", infs["wcetlab_stage_seconds"], counts["wcetlab_stage_seconds"])
	}
	if want := 0.05 + 0.5 + 7; math.Abs(sums["wcetlab_stage_seconds"]-want) > 1e-9 {
		t.Fatalf("_sum = %g, want %g", sums["wcetlab_stage_seconds"], want)
	}
	if !strings.Contains(out, `bench="we\"ird\\"`) {
		t.Fatalf("label escaping missing in output:\n%s", out)
	}
}

// TestRegistryConcurrent hammers one counter and one histogram from many
// goroutines; run under -race this is the registry's race lane, and the
// exact final counts prove no increment was lost.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("wcetlab_conc_total", "h", "stage", "analyze").Inc()
				r.Histogram("wcetlab_conc_seconds", "h", nil, "stage", "analyze").Observe(float64(i%10) / 1000)
				r.Gauge("wcetlab_conc_gauge", "h").Add(1)
				r.Counter("wcetlab_conc_total", "h", "stage", fmt.Sprint("w", w)).Inc()
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("wcetlab_conc_total", "h", "stage", "analyze").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	h := r.Histogram("wcetlab_conc_seconds", "h", nil, "stage", "analyze").Snapshot()
	if h.Count != workers*perWorker {
		t.Fatalf("hist count = %d, want %d", h.Count, workers*perWorker)
	}
	var bucketSum uint64
	for _, c := range h.Counts {
		bucketSum += c
	}
	if bucketSum != h.Count {
		t.Fatalf("bucket total %d != count %d", bucketSum, h.Count)
	}
	if got := r.Gauge("wcetlab_conc_gauge", "h").Value(); got != workers*perWorker {
		t.Fatalf("gauge = %d, want %d", got, workers*perWorker)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("wcetlab_b_total", "h").Inc()
	r.Counter("wcetlab_a_total", "h", "x", "2").Inc()
	r.Counter("wcetlab_a_total", "h", "x", "1").Inc()
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Name != "wcetlab_a_total" || snap[1].Name != "wcetlab_b_total" {
		t.Fatalf("family order wrong: %+v", snap)
	}
	if snap[0].Samples[0].Label("x") != "1" || snap[0].Samples[1].Label("x") != "2" {
		t.Fatalf("sample order wrong: %+v", snap[0].Samples)
	}
}
