package pipeline

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// counter is one pipeline event count: the pipeline's own atomic (which
// Stats reads) and its process-wide registry series (which /v1/metrics
// exposes), bumped together so the two cannot drift.
type counter struct {
	n   atomic.Uint64
	reg *obs.Counter
}

func (c *counter) inc() {
	c.n.Add(1)
	c.reg.Inc()
}

// entry is a singleflight cache slot: the first getter computes under the
// entry lock, later getters (and concurrent ones, after blocking) reuse.
type entry[V any] struct {
	mu   sync.Mutex
	done bool
	val  V
	err  error
}

// memo is a lazily allocated map of singleflight entries.
type memo[V any] struct {
	mu sync.Mutex
	m  map[string]*entry[V]
}

// slot returns (creating if needed) the entry for key.
func (m *memo[V]) slot(key string) *entry[V] {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.m[key]
	if e == nil {
		if m.m == nil {
			m.m = make(map[string]*entry[V])
		}
		e = &entry[V]{}
		m.m[key] = e
	}
	return e
}

// get returns the memoized value for key, computing it under the entry
// lock on first use; fresh reports whether this call computed it.
func (m *memo[V]) get(key string, compute func() (V, error)) (v V, fresh bool, err error) {
	e := m.slot(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.done {
		e.val, e.err = compute()
		e.done, fresh = true, true
	}
	return e.val, fresh, e.err
}

// codec is a stage's disk tier: reads and writes of one artifact kind
// under (program key, stage key).
type codec[V any] struct {
	load func(s *store.Store, prog, key string) (V, bool)
	save func(s *store.Store, prog, key string, v V) error
}

// timer runs a stage's own work, timing it as the stage's wall clock.
type timer[V any] func(work func() (V, error)) (V, error)

// request is one stage lookup.
type request[V any] struct {
	key string
	// attrs are span attributes beyond the tier.
	attrs []obs.Attr
	// stale, when set, marks a memoized or stored value that must be
	// recomputed (the analysis stage's witness upgrade).
	stale func(V) bool
	// compute produces the value on a miss in both tiers. It runs its own
	// work through timed and calls upstream stages — whose wall clock is
	// their own — outside it.
	compute func(ctx context.Context, timed timer[V]) (V, error)
}

// stage is the one runner behind every pipeline stage: memo lookup,
// singleflight, the "stage:<name>" span with its memory/disk/compute tier,
// timing, best-effort write-back and every counter.
type stage[V any] struct {
	name  string
	span  string
	codec *codec[V] // nil: memory-only stage
	memo  memo[V]

	runs, memHit, memMiss, diskHit, diskMiss counter
	nanos                                    atomic.Int64
	seconds                                  *obs.Histogram
}

// init names the stage and resolves its registry series once, so the hot
// paths pay only atomic increments.
func (s *stage[V]) init(name, bench string, c *codec[V]) {
	s.name, s.span, s.codec = name, "stage:"+name, c
	s.runs.reg = obs.Default.Counter("wcetlab_stage_runs_total",
		"Cold pipeline stage executions.", "stage", name, "bench", bench)
	s.seconds = obs.Default.Histogram("wcetlab_stage_seconds",
		"Wall clock per cold pipeline stage execution.", nil,
		"stage", name, "bench", bench)
	for _, l := range []struct {
		c            *counter
		tier, result string
	}{
		{&s.memHit, "memory", "hit"}, {&s.memMiss, "memory", "miss"},
		{&s.diskHit, "disk", "hit"}, {&s.diskMiss, "disk", "miss"},
	} {
		l.c.reg = obs.Default.Counter("wcetlab_stage_cache_total",
			"Pipeline stage cache lookups by tier and result.",
			"stage", name, "tier", l.tier, "result", l.result, "bench", bench)
	}
}

// get serves one request memory → disk → compute. The entry lock is held
// for the whole lookup (singleflight) and released by defer, so a
// panicking compute leaves the entry retryable rather than locked.
func (s *stage[V]) get(ctx context.Context, p *Pipeline, r request[V]) (V, error) {
	ctx, sp := obs.Start(ctx, s.span, append([]obs.Attr{obs.A("tier", "memory")}, r.attrs...)...)
	defer sp.End()
	e := s.memo.slot(r.key)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done && (e.err != nil || r.stale == nil || !r.stale(e.val)) {
		s.memHit.inc()
		return e.val, e.err
	}
	s.memMiss.inc()
	upgrade := e.done
	disk := p.Store()
	if disk != nil && s.codec != nil {
		if v, ok := s.codec.load(disk, p.programKey(), r.key); ok && (r.stale == nil || !r.stale(v)) {
			s.diskHit.inc()
			sp.SetAttr("tier", "disk")
			e.val, e.err, e.done = v, nil, true
			return v, nil
		}
		s.diskMiss.inc()
	}
	sp.SetAttr("tier", "compute")
	if upgrade {
		p.upgrades.inc()
	}
	e.val, e.err = s.run(ctx, p, r.key, r.compute)
	e.done = true
	if e.err == nil && disk != nil && s.codec != nil {
		p.saved(s.codec.save(disk, p.programKey(), r.key, e.val))
	}
	return e.val, e.err
}

// run is one cold execution: counted, and its own work timed into the
// stage's wall clock, latency histogram and debug record.
func (s *stage[V]) run(ctx context.Context, p *Pipeline, key string, compute func(context.Context, timer[V]) (V, error)) (V, error) {
	s.runs.inc()
	return compute(ctx, func(work func() (V, error)) (V, error) {
		t0 := time.Now()
		v, err := work()
		d := time.Since(t0)
		s.nanos.Add(int64(d))
		s.seconds.Observe(d.Seconds())
		p.debugStage(ctx, s.name, key, d)
		return v, err
	})
}

// counts reads the stage's counters for Stats.
func (s *stage[V]) counts() (runs, hits, diskHits, diskMisses uint64, t time.Duration) {
	return s.runs.n.Load(), s.memHit.n.Load(), s.diskHit.n.Load(), s.diskMiss.n.Load(),
		time.Duration(s.nanos.Load())
}
