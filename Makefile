GO ?= go

.PHONY: check ci fmt vet build test test-race examples fuzz-smoke bench bench-json bench-smoke bench-diff perfbench-smoke wcetlab warmstore smoke

# Tier-1 verification plus formatting/lint gates.
check: fmt vet build test

# What .github/workflows/ci.yml runs: check with the race detector on,
# every example run end to end, short fuzzing runs of the simplex kernel, the cache-sweep pricing,
# the counted profile, the MUST cache domain and the store decoders, the
# single-iteration benchmark smoke (validated JSON), the benchmark
# module's build and tests, the warm-store determinism check and the serve
# smoke test.
ci: fmt vet build test-race examples fuzz-smoke bench-smoke perfbench-smoke warmstore smoke

# Ten seconds of native fuzzing per target: the simplex kernel must match
# the dense reference tableau (internal/lp/ref_test.go) on generated
# programs, its dual re-optimisation of a branch & bound child must match
# a cold solve of the child's program, sim.RunCaches must price generated
# programs under random cache batches and scratchpad placements as the
# reference bus does (internal/sim/ref_test.go), sim.CollectProfile must
# count generated programs under random scratchpad placements as the
# reference profiler does (internal/sim/refprof_test.go), the MUST cache
# domain must match its plain reference (internal/wcet/refdom_test.go) step by
# step under random reads, range clobbers, clones and joins, and the
# store's artifact decoders must return a value or an error, never panic,
# on arbitrary bytes. The store decoders' inputs are cheap to run but
# slow to minimise, so their target minimises each new input once
# (-fuzzminimizetime=1x) and spends its time fuzzing. The checked-in seed
# corpora (testdata/fuzz under each package) replay in every plain
# `go test`; this target searches beyond them.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzSolveMatchesReference -fuzztime=10s ./internal/lp
	$(GO) test -run='^$$' -fuzz=FuzzBranchMatchesSolve -fuzztime=10s ./internal/lp
	$(GO) test -run='^$$' -fuzz=FuzzRunCachesMatchesReference -fuzztime=10s ./internal/sim
	$(GO) test -run='^$$' -fuzz=FuzzProfileMatchesReference -fuzztime=10s ./internal/sim
	$(GO) test -run='^$$' -fuzz=FuzzMustDomainMatchesReference -fuzztime=10s ./internal/wcet
	$(GO) test -run='^$$' -fuzz=FuzzStoreDecode -fuzztime=10s -fuzzminimizetime=1x ./internal/store

# The CI benchmark gate: one pass over every benchmark into a temporary
# file, validated by cmd/jsoncheck, then compared with the checked-in
# BENCH_local.json by cmd/benchdiff. Single-iteration numbers are noisy,
# so the comparison only reports. The checked-in baseline is never
# written here: `make bench-json` regenerates it on purpose.
bench-smoke:
	@set -e; out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	$(MAKE) --no-print-directory bench-json BENCH_OUT="$$out"; \
	$(GO) run ./cmd/jsoncheck < "$$out"; \
	$(GO) run ./cmd/benchdiff BENCH_local.json "$$out" || true

# Advisory perf comparison: stash the checked-in BENCH_local.json as the
# baseline, regenerate it, and diff the two with cmd/benchdiff. Single-
# iteration numbers are noisy, so CI runs this report-only; run it
# locally with more -benchtime for a real verdict.
bench-diff:
	@set -e; base=$$(mktemp); trap 'rm -f "$$base"' EXIT; \
	cp BENCH_local.json "$$base"; \
	$(MAKE) bench-json; \
	$(GO) run ./cmd/benchdiff "$$base" BENCH_local.json

# perfbench/ is its own Go module, so the root `go build ./...` never
# compiles it: vet and test it against the repository's current APIs.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# go vet's slog analyzer also checks the key/value pairs of every log/slog
# call (obs.Log), so a dangling key or a non-string key fails here.
vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Every program under examples/ must run to completion (exit 0); `build`
# only compiles them.
examples:
	@set -e; for e in examples/*/; do \
		echo "examples: $$e"; $(GO) run "./$$e" > /dev/null; done

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark report: one pass over the paper benchmarks
# (-benchtime=1x keeps it quick), converted by cmd/benchjson (name ->
# ns/op, B/op, allocs/op, sorted by name) into BENCH_OUT, by default the
# checked-in baseline BENCH_local.json.
BENCH_OUT ?= BENCH_local.json
bench-json:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=1x . | $(GO) run ./cmd/benchjson > "$(BENCH_OUT)"
	@echo "bench-json: wrote $(BENCH_OUT)"

wcetlab:
	$(GO) build -o bin/wcetlab ./cmd/wcetlab

# Warm-store determinism: run the full regeneration twice against one
# shared artifact store; the second pass must report zero disk misses
# (nothing recomputed) and print byte-identical tables and figures.
warmstore: wcetlab
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	./bin/wcetlab -store "$$dir/store" all > "$$dir/cold.txt"; \
	./bin/wcetlab -store "$$dir/store" all > "$$dir/warm.txt"; \
	grep -Eq 'artifact store: [0-9]+ disk hits, 0 disk misses' "$$dir/warm.txt" || { \
		echo "warmstore: warm run had disk misses:"; \
		grep 'artifact store' "$$dir/warm.txt"; exit 1; }; \
	awk '/Pipeline statistics/{exit} {print}' "$$dir/cold.txt" > "$$dir/cold.head"; \
	awk '/Pipeline statistics/{exit} {print}' "$$dir/warm.txt" > "$$dir/warm.head"; \
	cmp -s "$$dir/cold.head" "$$dir/warm.head" || { \
		echo "warmstore: warm output differs from cold:"; \
		diff "$$dir/cold.head" "$$dir/warm.head" | head -20; exit 1; }; \
	echo "warmstore: ok (zero disk misses, identical figures)"

# HTTP smoke: start `wcetlab serve` (with periodic GC enabled) on an
# ephemeral port, make one /v1/wcet request and one /v1/stats request
# against it, sweep the Pareto branch both buffered and streamed and
# verify the streamed JSON lines carry exactly the buffered array's rows,
# then exercise the store GC policy against the artifacts the server just
# wrote. (The whitespace-stripping comparison is sound here because no
# JSON string in a sweep row contains whitespace.) The /v1/metrics scrapes
# bracketing the requests assert the stage and HTTP counters actually
# moved, and a traced wcetsweep run asserts -trace writes a valid Chrome
# trace with the sweep -> cell -> stage hierarchy in it. The health
# checks assert liveness answers immediately, readiness flips to 200
# once the background warmup builds every shard, and the access log the
# server wrote is line-by-line valid JSON carrying request ids. A
# one-shot subcommand must write nothing to stderr: logging is off unless
# -log turns it on, and obs.Log is never slog's default logger (-trace
# makes table1 log "trace written" at info, so a louder default shows). The
# closing cross-process sequence asserts that re-analysis is
# deterministic: a cold pareto run seeds a second store, analyses and
# allocations are evicted, and a fresh process re-deriving them must
# print byte-identical output. The doubled cache sweep asserts
# the incremental cache context: the repeat must be byte-identical to the
# first pass and the metrics must show the warm analyses reusing a shared
# context rather than rebuilding it.
smoke: wcetlab
	@set -e; dir=$$(mktemp -d); pid=""; \
	trap 'test -n "$$pid" && kill "$$pid" 2>/dev/null; rm -rf "$$dir"' EXIT; \
	./bin/wcetlab -store "$$dir/store" -addr 127.0.0.1:0 serve -gc-interval 1s 2> "$$dir/serve.log" & pid=$$!; \
	url=""; i=0; while [ $$i -lt 100 ]; do \
		url=$$(sed -n 's#.*"addr":"\(http://[^"]*\)".*#\1#p' "$$dir/serve.log" | head -1); \
		[ -n "$$url" ] && break; i=$$((i+1)); sleep 0.1; done; \
	[ -n "$$url" ] || { echo "smoke: server did not start"; cat "$$dir/serve.log"; exit 1; }; \
	./bin/wcetlab -store off -trace "$$dir/table1.trace" table1 > /dev/null 2> "$$dir/table1.err"; \
	[ ! -s "$$dir/table1.err" ] || { \
		echo "smoke: one-shot table1 wrote to stderr:"; cat "$$dir/table1.err"; exit 1; }; \
	st=0; ./bin/wcetlab -store off pareto MultiSort -adaptive -maxpoints 1 > /dev/null 2>&1 || st=$$?; \
	[ "$$st" -eq 2 ] || { \
		echo "smoke: pareto -maxpoints 1 exited $$st, want 2"; exit 1; }; \
	curl -fsS "$$url/v1/healthz" | grep -q '"status": *"ok"' || { \
		echo "smoke: /v1/healthz failed"; exit 1; }; \
	ready=""; i=0; while [ $$i -lt 240 ]; do \
		if curl -fsS "$$url/v1/readyz" > "$$dir/ready.json" 2>/dev/null; then ready=1; break; fi; \
		i=$$((i+1)); sleep 0.5; done; \
	[ -n "$$ready" ] && grep -q '"ready": *true' "$$dir/ready.json" || { \
		echo "smoke: /v1/readyz never became ready"; \
		curl -sS "$$url/v1/readyz" || true; exit 1; }; \
	curl -fsS -D "$$dir/hdrs.txt" -H 'X-Request-ID: smoke-rid-1' "$$url/v1/healthz" > /dev/null; \
	grep -qi '^x-request-id: smoke-rid-1' "$$dir/hdrs.txt" || { \
		echo "smoke: inbound X-Request-ID not echoed"; cat "$$dir/hdrs.txt"; exit 1; }; \
	curl -fsS "$$url/v1/metrics" > "$$dir/m0.txt" || { \
		echo "smoke: /v1/metrics failed"; exit 1; }; \
	curl -fsS "$$url/v1/wcet?bench=WorstCaseSort&spm=512" | grep -q '"wcet"' || { \
		echo "smoke: /v1/wcet failed"; exit 1; }; \
	curl -fsS "$$url/v1/stats" | grep -q '"workers"' || { \
		echo "smoke: /v1/stats failed"; exit 1; }; \
	curl -fsS "$$url/v1/sweep?bench=WorstCaseSort&branch=pareto" | tr -d ' \n' > "$$dir/pareto.buf"; \
	curl -fsS "$$url/v1/sweep?bench=WorstCaseSort&branch=pareto&stream=1" \
		| paste -sd, - | sed 's/^/[/; s/$$/]/' | tr -d ' \n' > "$$dir/pareto.str"; \
	cmp -s "$$dir/pareto.buf" "$$dir/pareto.str" || { \
		echo "smoke: streamed pareto sweep differs from buffered:"; \
		diff "$$dir/pareto.buf" "$$dir/pareto.str" | head -5; exit 1; }; \
	grep -q '"kind":"' "$$dir/pareto.buf" || { \
		echo "smoke: pareto sweep returned no points"; exit 1; }; \
	curl -fsS "$$url/v1/sweep?bench=WorstCaseSort&branch=cache" | tr -d ' \n' > "$$dir/cache.one"; \
	curl -fsS "$$url/v1/sweep?bench=WorstCaseSort&branch=cache" | tr -d ' \n' > "$$dir/cache.two"; \
	cmp -s "$$dir/cache.one" "$$dir/cache.two" || { \
		echo "smoke: repeated cache sweep differs from the first:"; \
		diff "$$dir/cache.one" "$$dir/cache.two" | head -5; exit 1; }; \
	grep -q '"cache_size"' "$$dir/cache.one" || { \
		echo "smoke: cache sweep returned no rows"; exit 1; }; \
	curl -fsS "$$url/v1/metrics" > "$$dir/m1.txt"; \
	grep -Eq '^wcetlab_cache_context_reuses_total [1-9]' "$$dir/m1.txt" || { \
		echo "smoke: cache sweeps did not reuse a cache context"; exit 1; }; \
	runs0=$$(awk '/^wcetlab_stage_runs_total/{s+=$$NF} END{print s+0}' "$$dir/m0.txt"); \
	runs1=$$(awk '/^wcetlab_stage_runs_total/{s+=$$NF} END{print s+0}' "$$dir/m1.txt"); \
	[ "$$runs1" -gt "$$runs0" ] || { \
		echo "smoke: stage run counters did not move ($$runs0 -> $$runs1)"; exit 1; }; \
	sweeps=$$(grep -F 'wcetlab_http_request_seconds_count{route="/v1/sweep"}' "$$dir/m1.txt" | awk '{print $$2}'); \
	[ -n "$$sweeps" ] && [ "$$sweeps" -gt 0 ] || { \
		echo "smoke: /v1/sweep request histogram did not move"; exit 1; }; \
	sleep 1.2; curl -fsS "$$url/v1/stats" | grep -q '"gc"' || { \
		echo "smoke: /v1/stats has no periodic-gc section"; exit 1; }; \
	./bin/wcetlab -store "$$dir/store" gc -max-age 24h | grep -q '^gc: removed 0 ' || { \
		echo "smoke: gc -max-age removed fresh entries"; exit 1; }; \
	./bin/wcetlab -store "$$dir/store" gc -max-bytes 1 | grep -q ' 0 entries (0 bytes) remain' || { \
		echo "smoke: gc -max-bytes did not drain the store"; exit 1; }; \
	./bin/wcetlab -store off -trace "$$dir/trace.json" wcetsweep MultiSort > /dev/null 2>&1 || { \
		echo "smoke: traced wcetsweep failed"; exit 1; }; \
	$(GO) run ./cmd/jsoncheck < "$$dir/trace.json" || { \
		echo "smoke: trace.json is not valid JSON"; exit 1; }; \
	for span in '"sweep"' '"cell"' '"stage:analyze"' '"solve"' '"fixpoint"'; do \
		grep -q "$$span" "$$dir/trace.json" || { \
			echo "smoke: trace.json missing $$span spans"; exit 1; }; done; \
	grep '"msg":"request"' "$$dir/serve.log" > "$$dir/access.log" || { \
		echo "smoke: serve wrote no access-log records"; exit 1; }; \
	grep -q '"req":"smoke-rid-1"' "$$dir/access.log" || { \
		echo "smoke: access log did not carry the inbound request id"; exit 1; }; \
	head -5 "$$dir/access.log" | while IFS= read -r line; do \
		printf '%s' "$$line" | $(GO) run ./cmd/jsoncheck || { \
			echo "smoke: access-log line is not valid JSON: $$line"; exit 1; }; done; \
	./bin/wcetlab -store "$$dir/store2" pareto MultiSort > "$$dir/pareto.cold"; \
	./bin/wcetlab -store "$$dir/store2" gc -drop wcet,alloc > /dev/null; \
	./bin/wcetlab -store "$$dir/store2" pareto MultiSort > "$$dir/pareto.warm"; \
	cmp -s "$$dir/pareto.cold" "$$dir/pareto.warm" || { \
		echo "smoke: warm pareto output differs from cold:"; \
		diff "$$dir/pareto.cold" "$$dir/pareto.warm" | head -5; exit 1; }; \
	echo "smoke: ok ($$url)"
