package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down (in-flight requests, queue
// depth, sampled runtime state). Storage is a float64 so fractional
// gauges (GC pause seconds) fit; the integer Set/Add/Value methods cover
// the common counting uses.
type Gauge struct {
	v atomic.Uint64 // float64 bits
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.SetFloat(float64(n)) }

// SetFloat replaces the gauge value with a float64.
func (g *Gauge) SetFloat(v float64) { g.v.Store(math.Float64bits(v)) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	for {
		old := g.v.Load()
		if g.v.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+float64(n))) {
			return
		}
	}
}

// Value returns the current gauge value truncated to an integer.
func (g *Gauge) Value() int64 { return int64(g.FloatValue()) }

// FloatValue returns the current gauge value.
func (g *Gauge) FloatValue() float64 { return math.Float64frombits(g.v.Load()) }

// DefBuckets are the default latency buckets in seconds: 100µs to 10s,
// roughly exponential — the span of one pipeline stage execution.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram. Observations land in the first
// bucket whose upper bound is >= the value (cumulative counts, Prometheus
// semantics, are produced at exposition time); the exact maximum is
// tracked alongside so tail quantiles beyond the last finite bucket stay
// meaningful.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) && old != 0 {
			break
		}
		if h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Snapshot copies the histogram's state for reading.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
		Max:    math.Float64frombits(h.max.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram. Counts are
// per-bucket (not cumulative); Counts[len(Bounds)] is the +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
	Max    float64
}

// Merge adds another snapshot of the same bucket layout into s (for
// aggregating one stage's histograms across benchmarks).
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	if len(s.Counts) != len(o.Counts) {
		return
	}
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Quantile estimates the q-quantile (0 < q <= 1) from the buckets by
// linear interpolation inside the bucket the rank q·Count falls in,
// treating its observations as spread evenly between the bucket's lower
// and upper edge (0 below the first bucket; the exact tracked maximum
// stands in for the +Inf bucket's edge). Every estimate is capped by that
// maximum, so p99 never exceeds the true max. Returns 0 for an empty
// histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 || float64(cum+c) < rank {
			cum += c
			continue
		}
		lo, hi := 0.0, s.Max
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		if i < len(s.Bounds) {
			hi = s.Bounds[i]
		}
		return math.Min(lo+(hi-lo)*(rank-float64(cum))/float64(c), s.Max)
	}
	return s.Max
}

// Label is one name/value pair of a metric's identity.
type Label struct {
	Key, Value string
}

type metricType uint8

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	}
	return "counter"
}

// family is every metric sharing one name (and type and help string),
// split by label sets.
type family struct {
	name    string
	help    string
	typ     metricType
	bounds  []float64 // histograms only
	mu      sync.RWMutex
	metrics map[string]*series
}

// series is one (name, label set) time series.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds metric families by name. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey canonicalises label pairs ("k\xffv\xfe..."), sorted by key, and
// returns the sorted pairs.
func labelKey(kv []string) (string, []Label) {
	if len(kv)%2 != 0 {
		panic("obs: odd label key/value list")
	}
	labels := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		labels = append(labels, Label{Key: kv[i], Value: kv[i+1]})
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte(0xff)
		b.WriteString(l.Value)
		b.WriteByte(0xfe)
	}
	return b.String(), labels
}

// fam returns (creating if needed) the family, panicking on a type
// mismatch — two call sites disagreeing about a metric's type is a
// programming error, not a runtime condition.
func (r *Registry) fam(name, help string, typ metricType, bounds []float64) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.families[name]; f == nil {
			f = &family{name: name, help: help, typ: typ, bounds: bounds, metrics: make(map[string]*series)}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	return f
}

func (f *family) series(key string, labels []Label) *series {
	f.mu.RLock()
	s := f.metrics[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.metrics[key]; s == nil {
		s = &series{labels: labels}
		switch f.typ {
		case typeCounter:
			s.c = &Counter{}
		case typeGauge:
			s.g = &Gauge{}
		case typeHistogram:
			s.h = newHistogram(f.bounds)
		}
		f.metrics[key] = s
	}
	return s
}

// Counter returns (registering on first use) the counter with the given
// name and label pairs ("key", "value", ...).
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	key, ls := labelKey(labels)
	return r.fam(name, help, typeCounter, nil).series(key, ls).c
}

// Gauge returns (registering on first use) the gauge with the given name
// and label pairs.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	key, ls := labelKey(labels)
	return r.fam(name, help, typeGauge, nil).series(key, ls).g
}

// Histogram returns (registering on first use) the histogram with the
// given name, bucket bounds (nil means DefBuckets) and label pairs. The
// bounds of the first registration win for the whole family.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	key, ls := labelKey(labels)
	return r.fam(name, help, typeHistogram, bounds).series(key, ls).h
}

// Sample is one series' current value in a Snapshot.
type Sample struct {
	// Labels is the series' identity, sorted by key.
	Labels []Label
	// Value is the counter or gauge value (0 for histograms).
	Value float64
	// Hist is the histogram state (nil for counters and gauges).
	Hist *HistogramSnapshot
}

// Label returns the value of one label key ("" when absent).
func (s Sample) Label(key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// FamilySnapshot is one metric family's current state.
type FamilySnapshot struct {
	Name, Help, Type string
	Samples          []Sample
}

// Snapshot copies the registry's current state, families sorted by name
// and samples by label identity — the deterministic order the exposition
// writer, the stats tables and the tests all read from.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ.String()}
		f.mu.RLock()
		keys := make([]string, 0, len(f.metrics))
		for k := range f.metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.metrics[k]
			sample := Sample{Labels: s.labels}
			switch f.typ {
			case typeCounter:
				sample.Value = float64(s.c.Value())
			case typeGauge:
				sample.Value = s.g.FloatValue()
			case typeHistogram:
				h := s.h.Snapshot()
				sample.Hist = &h
			}
			fs.Samples = append(fs.Samples, sample)
		}
		f.mu.RUnlock()
		out = append(out, fs)
	}
	return out
}

// escapeLabel escapes a label value for the text exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// renderLabels renders {k="v",...}; extra appends one more pair (the
// histogram "le" label). Returns "" for an empty label set with no extra.
func renderLabels(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraKey, escapeLabel(extraVal))
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a sample value the way Prometheus expects
// (integer-valued floats without an exponent or trailing zeros).
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// formatBound renders a bucket upper bound for the "le" label.
func formatBound(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus serialises the registry in the Prometheus text
// exposition format (version 0.0.4): a HELP and TYPE line per family,
// then one line per series — histograms as cumulative _bucket series plus
// _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.Snapshot() {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
			return err
		}
		for _, s := range f.Samples {
			if s.Hist == nil {
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.Name, renderLabels(s.Labels, "", ""), formatValue(s.Value)); err != nil {
					return err
				}
				continue
			}
			var cum uint64
			for i, c := range s.Hist.Counts {
				cum += c
				bound := math.Inf(1)
				if i < len(s.Hist.Bounds) {
					bound = s.Hist.Bounds[i]
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, renderLabels(s.Labels, "le", formatBound(bound)), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.Name, renderLabels(s.Labels, "", ""), formatValue(s.Hist.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.Name, renderLabels(s.Labels, "", ""), s.Hist.Count); err != nil {
				return err
			}
		}
	}
	return nil
}
