// Package obs is the repository's dependency-free observability core: a
// metrics registry, a context-propagated span tracer, the process logger
// and a runtime sampler, shared by every layer of the
// analyse/allocate stack.
//
// # Metrics
//
// A Registry holds counters, gauges and fixed-bucket latency histograms,
// registered by name plus label pairs (the Prometheus data model). All
// mutation is a handful of atomic operations — safe for any number of
// goroutines, cheap enough to leave on unconditionally — and the whole
// registry serialises to the Prometheus text exposition format
// (WritePrometheus), which `wcetlab serve` exposes at GET /v1/metrics.
// Quantiles (p50/p95/p99) are derived from the histogram buckets at read
// time; the exact maximum is tracked alongside.
//
// The repository's metric naming convention: every metric is prefixed
// `wcetlab_`, counters end in `_total`, histograms of durations end in
// `_seconds`, and labels identify the dimension being split (stage, tier,
// result, bench, route, solver). The instrumented surfaces are the
// pipeline stages (internal/pipeline), the artifact store (internal/store),
// the allocation engine (internal/alloc, internal/ilp), the HTTP
// service (internal/service) and the Go runtime itself (runtime.go).
//
// # Tracing
//
// A Tracer records hierarchical spans — request → sweep → cell → stage →
// solve — carrying structured attributes. Parentage propagates through
// context.Context: Start(ctx, name) returns a derived context carrying
// the new span, and the next Start under that context nests beneath it.
// Handing the context to a worker goroutine hands the trace over with it,
// so a parallel sweep's cells hang off the sweep span exactly, with no
// goroutine-identity guessing. Every span carries the request id from its
// context (WithRequestID / RequestID), the same id the logger stamps on
// its records — log line ⇄ span tree ⇄ metric series correlate by it.
// A disabled tracer (the default) reduces Start to one atomic load
// returning a nil span, and every Span method is nil-safe, so
// instrumentation costs nothing unless `wcetlab -trace` (or a ?trace=1
// request) turns it on.
//
// Completed traces export as Chrome trace-event JSON (WriteChromeTrace),
// loadable in chrome://tracing and Perfetto; span, parent and request IDs
// travel in each event's args so the hierarchy is reconstructible
// exactly, not just by timestamp containment.
//
// # Logging
//
// Log is the process-wide logger: a log/slog JSON handler on stderr that
// writes single-line records with the keys ts (UTC, milliseconds), level
// (lowercase) and msg, plus "req" when the record's context carries a
// request id (log.go). It starts at LevelOff and is never installed as
// slog's default; `wcetlab -log off|error|warn|info|debug` sets LogLevel
// (default info for serve, off for one-shot subcommands, keeping golden
// stdout/stderr byte-identical).
package obs

import "context"

// Default is the process-wide metrics registry every instrumented package
// records into and /v1/metrics exposes.
var Default = NewRegistry()

// DefaultTracer is the process-wide tracer behind `wcetlab -trace` and the
// service's ?trace=1 span summaries. It is disabled until Enable is
// called.
var DefaultTracer = NewTracer(DefaultSpanLimit)

// Start opens a span on the default tracer nested under the innermost
// open span carried by ctx, returning a derived context that carries the
// new span. Returns (ctx, nil) — a valid no-op span — when the tracer is
// disabled.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	return DefaultTracer.Start(ctx, name, attrs...)
}
