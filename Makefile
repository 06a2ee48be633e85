PYTHON ?= python
export PYTHONPATH := src

#: minimum branch coverage of src/repro/server/ (ratchet: raise, never
#: lower, as the daemon's test surface grows).
COVERAGE_MIN ?= 85

.PHONY: test bench bench-smoke trace-smoke cli-smoke chaos-smoke \
	server-smoke cache-smoke obs-smoke daemon-chaos-smoke fuzz-smoke \
	coverage

test:
	$(PYTHON) -m pytest -x -q

# Observability smoke: `vaultc check --trace` over the examples corpus
# (plus a synthesized unit) must emit schema-valid Chrome trace JSON
# with one check_function span per function.
trace-smoke:
	$(PYTHON) benchmarks/trace_smoke.py

# Fresh-process smoke: `python -m repro.cli check` (GC off, fast
# exit) over the examples corpus plus a synthesized 160-function unit
# must give the stdout and exit code of in-process main() byte for byte.
cli-smoke:
	$(PYTHON) benchmarks/cli_smoke.py

# Fast CI smoke: asserts the front-end ratchet (lex+parse share of a
# cold check; a one-chunk edit re-parses one chunk and reuses >=90% of
# chunk ASTs), the retention ratchet (after 10 line inserts a session
# holds only the last revision's chunks and one context) and the
# elaboration ratchet (10 body edits and 10 in-body blank lines run
# build_context 0 times), the splice ratchet, the unit-replay
# ratchet (a re-save of 160 functions plus one module member serves
# every function), the summary ratchet (after 10 body edits a
# session holds only the last revision's summaries) and the body-edit
# scaling ratchet (a body edit of 640 functions makes at most 1.2x the
# calls of one of 160), then runs the
# benchmark bodies once (no timing rounds),
# refreshing BENCH_checker.json with cold/warm/edit timings.
bench-smoke:
	$(PYTHON) benchmarks/bench_smoke.py
	$(PYTHON) -m pytest benchmarks/bench_checker_scaling.py \
	    benchmarks/bench_incremental.py -q --benchmark-disable

# Resilience smoke: a corrupted file record (--cache DIR) must be
# quarantined under DIR/corrupt/ and rebuilt, with byte-identical
# diagnostics.
chaos-smoke:
	$(PYTHON) benchmarks/chaos_smoke.py

# On-disk cache smoke: a second cold session over a warm --cache DIR
# must replay the file's record >=3x faster with byte-identical
# diagnostics; after one edit the summary hit rate must stay >=0.9.
# Writes the "shared_cache" block of BENCH_checker.json.
cache-smoke:
	$(PYTHON) benchmarks/bench_cache.py

# Telemetry smoke: a daemon with the full obs surface on (time-series
# sampling, Prometheus textfile, slow-trace ring, JSONL event log)
# must round-trip the telemetry op with monotone latency quantiles,
# emit parseable exposition, capture exactly one forced-slow trace,
# and serve `vaultc top --once --json`.  Writes the "observability"
# block of BENCH_checker.json.
obs-smoke:
	$(PYTHON) benchmarks/obs_smoke.py

# Daemon smoke: a real `vaultc serve` under three concurrent clients
# must answer byte-identically to the in-process checker, check every
# request (server.checks == 3), shut down cleanly on SIGTERM, and fall
# back transparently once gone.
server-smoke:
	$(PYTHON) benchmarks/server_smoke.py

# Wire-level chaos smoke: a real daemon behind the ChaosProxy must
# keep the diagnostics byte-identical under every wire fault (torn,
# garbage, oversize, disconnect, stall, kill mid-check), shed a burst
# past --max-queue with busy replies, survive 3 SIGKILLs under
# --supervise, and degrade an injected CAS ENOSPC to a miss.  Writes
# the "daemon_resilience" block of BENCH_checker.json.
daemon-chaos-smoke:
	$(PYTHON) benchmarks/daemon_chaos_smoke.py

# Differential-fuzzing smoke: 200 seeded adversarial protocol
# programs (random keyed state machines + violating clients) must
# check byte-identically through serial, a warm cached session and a
# live check daemon; then 40 seeded edit sequences, walked by one
# session, by a fresh --cache DIR session per revision and by one
# daemon (at the session's file cap, and again at a file cap of 1),
# must match check_source on every revision — zero
# divergences; each --cache DIR walk corrupts the file's record once,
# and at least one quarantine must be exercised.
# Writes the "fuzz" block of BENCH_checker.json.
fuzz-smoke:
	$(PYTHON) benchmarks/fuzz_smoke.py

# Branch coverage of the server package, ratcheted via COVERAGE_MIN.
# Skips (loudly) where coverage.py is not installed; CI installs it
# and enforces the floor.
coverage:
	@if $(PYTHON) -c "import coverage" 2>/dev/null; then \
		$(PYTHON) -m coverage run --branch \
		    --source=src/repro/server \
		    -m pytest tests/test_server.py tests/test_golden.py -q \
		&& $(PYTHON) -m coverage report \
		    --fail-under=$(COVERAGE_MIN); \
	else \
		echo "coverage: module not installed; skipping (CI enforces)"; \
	fi

# Full benchmark run, including the 640-function scaling point.
bench:
	$(PYTHON) -m pytest benchmarks/ -q
