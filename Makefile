# Convenience targets for the Sigil reproduction.

.PHONY: install test property benches figures examples telemetry-smoke campaign-smoke serve-smoke timeline-smoke bench-throughput bench-event-io bench-windowed bench-campaign bench-shadow bench-startup bench-pipeline regen-golden clean

install:
	pip install -e . || python setup.py develop

test: telemetry-smoke campaign-smoke serve-smoke timeline-smoke
	PYTHONPATH=src python -m pytest tests/
	PYTHONPATH=src python -m pytest perfbench -q

# Prove the self-telemetry loop end to end: write a manifest from each
# workload-running entry point (`profile`, `run` on a VM program, `reuse
# --mrc`), then render each back through `repro stats` (reading from stdin,
# the CI-log piping path).  The trap removes the scratch manifests whether
# the steps pass or fail.
telemetry-smoke:
	@set -e; \
	trap 'rm -f .telemetry-smoke*.manifest.json' EXIT; \
	PYTHONPATH=src python -m repro profile blackscholes --size simsmall \
		--manifest-out .telemetry-smoke.manifest.json >/dev/null; \
	PYTHONPATH=src python -m repro run examples/toy_program.s \
		--manifest-out .telemetry-smoke-run.manifest.json >/dev/null; \
	PYTHONPATH=src python -m repro reuse blackscholes --mrc \
		--manifest-out .telemetry-smoke-reuse.manifest.json >/dev/null; \
	for m in .telemetry-smoke.manifest.json .telemetry-smoke-run.manifest.json \
		.telemetry-smoke-reuse.manifest.json; do \
		PYTHONPATH=src python -m repro stats - < $$m; \
	done

# Prove the campaign engine end to end: a 2-worker mini-campaign over two
# small workloads, then the same campaign again -- the warm run must report
# every job as a cache hit (zero re-executions) -- then a cold one-worker
# run with a timeout into a fresh store, the serial hand-off path.  The trap
# drops the scratch stores whether the steps pass or fail.
campaign-smoke:
	@set -e; \
	trap 'rm -rf .campaign-smoke .campaign-smoke-serial' EXIT; \
	PYTHONPATH=src python -m repro campaign run --name smoke \
		--workloads blackscholes,streamcluster --sizes simsmall \
		--tools sigil -j 2 --store .campaign-smoke \
		| grep -q "2 done (0 cached, 2 executed, 0 failed, 0 timeout)"; \
	PYTHONPATH=src python -m repro campaign run --name smoke \
		--workloads blackscholes,streamcluster --sizes simsmall \
		--tools sigil -j 2 --store .campaign-smoke \
		| grep -q "2 done (2 cached, 0 executed, 0 failed, 0 timeout)"; \
	PYTHONPATH=src python -m repro campaign run --name smoke \
		--workloads blackscholes,streamcluster --sizes simsmall \
		--tools sigil -j 1 --timeout 60 --store .campaign-smoke-serial \
		| grep -q "2 done (0 cached, 2 executed, 0 failed, 0 timeout)"; \
	echo "campaign-smoke: warm re-run was 100% cache hits; serial run executed both"

# Prove the serve daemon end to end: start it on an ephemeral port, submit
# a job over HTTP, watch its trace to completion, re-submit the same cell
# (must be a pure cache hit), then scrape /metrics and check the hit
# counter.  The trap kills the daemon and drops the scratch dir either way.
serve-smoke:
	@set -e; \
	trap 'kill $$SERVE_PID 2>/dev/null; rm -rf .serve-smoke' EXIT; \
	rm -rf .serve-smoke; mkdir -p .serve-smoke; \
	PYTHONPATH=src python -m repro serve --port 0 \
		--port-file .serve-smoke/port --store .serve-smoke/store \
		-j 2 >/dev/null 2>&1 & SERVE_PID=$$!; \
	for i in $$(seq 1 50); do \
		test -s .serve-smoke/port && break; sleep 0.1; done; \
	URL="http://$$(cat .serve-smoke/port)"; \
	JOB=$$(PYTHONPATH=src python -m repro submit blackscholes \
		--tool native --url "$$URL"); \
	PYTHONPATH=src python -m repro watch "$$JOB" --url "$$URL" \
		--timeout 60 | grep -q "completed"; \
	JOB2=$$(PYTHONPATH=src python -m repro submit blackscholes \
		--tool native --url "$$URL"); \
	PYTHONPATH=src python -m repro watch "$$JOB2" --url "$$URL" \
		--timeout 60 | grep -q "cached"; \
	PYTHONPATH=src python -m repro metrics --url "$$URL" \
		| grep -q "^repro_store_cache_hits_total 1$$"; \
	echo "serve-smoke: warm HTTP re-submit was a cache hit"

# Prove the time-resolved observability path end to end: synthesise a
# 1M-segment binary event log (written chunk-by-chunk), stream it through
# `repro timeline` to a file and to stdout, check that both routes write the
# same bytes, and validate that the output is a Chrome/Perfetto trace
# carrying six counter tracks of one sample per window.  The trap drops the
# scratch dir either way.
timeline-smoke:
	@set -e; \
	trap 'rm -rf .timeline-smoke' EXIT; \
	rm -rf .timeline-smoke; mkdir -p .timeline-smoke; \
	PYTHONPATH=src:benchmarks python -c "from bench_event_io import synth_log; \
		from repro.io import dump_events_bin; \
		dump_events_bin(synth_log(1_000_000), '.timeline-smoke/ev.bin')"; \
	PYTHONPATH=src python -m repro timeline .timeline-smoke/ev.bin \
		-o .timeline-smoke/ev.trace.json \
		--curves-out .timeline-smoke/ev.curves.json \
		| grep -q "timeline written"; \
	PYTHONPATH=src python -m repro timeline .timeline-smoke/ev.bin -o - \
		> .timeline-smoke/stdout.trace.json; \
	cmp .timeline-smoke/ev.trace.json .timeline-smoke/stdout.trace.json; \
	PYTHONPATH=src python -c "import json; \
		t = json.load(open('.timeline-smoke/ev.trace.json')); \
		n = json.load(open('.timeline-smoke/ev.curves.json'))['n_windows']; \
		names = {e['name'] for e in t if e['ph'] == 'C'}; \
		assert {'WS(t) bytes', 'comm bytes/window', 'ops/window', \
			'mean reuse lifetime (ops)'} <= names, names; \
		assert all(e['ph'] in ('C', 'M') for e in t); \
		assert all(e['args'] is not None for e in t); \
		samples = sum(e['ph'] == 'C' for e in t); \
		assert n > 1 and samples == 6 * n, (samples, n)"; \
	echo "timeline-smoke: 1M-segment log renders the same counter tracks to a file and to stdout"

property:
	PYTHONPATH=src python -m pytest tests/property/ -q

# Publish observer throughput (scalar vs batched trace transport) into
# BENCH_throughput.json at the repo root, and fail if any tool's batched
# speedup drops below its floor (>= 1x everywhere; >= 5x for the rewritten
# callgrind batch kernel).
bench-throughput:
	PYTHONPATH=src python benchmarks/bench_tool_throughput.py \
		--check callgrind --check line-reuse

# Publish event-log I/O throughput (text v1 vs binary v2 dumps of a
# 1M-segment log, and the v2 load+critical-path and load+schedule) into the
# event_io section of BENCH_throughput.json, and fail if the binary file is
# not smaller than the text file.
bench-event-io:
	PYTHONPATH=src python benchmarks/bench_event_io.py --check

# Publish streaming windowed-analysis throughput (segments/s and the
# tracemalloc peak of one pass over a 2M-segment log) into the windowed
# section of BENCH_throughput.json, and fail if the pass's peak memory is
# not below what materialising the tables would cost.
bench-windowed:
	PYTHONPATH=src python benchmarks/bench_windowed.py --check

# Publish the campaign executor's overhead into the campaign section of
# BENCH_throughput.json: medians over five cold serial 13-cell simsmall
# sigil+callgrind campaigns of wall, summed job and profiling-phase seconds,
# coordinator idle (wall minus job seconds) and per-job overhead (job minus
# phase seconds).  Gates nothing.  About ten seconds.
bench-campaign:
	PYTHONPATH=src python benchmarks/bench_campaign.py

# Publish Sigil's shadow-memory cost on a fragmenting workload into the
# shadow section of BENCH_throughput.json: re-use and event mode, four
# pages fragmented by single-byte writes from two functions in turn, then
# page-wide reads and page-wide writes (seconds per phase, events/s), and
# the tracemalloc bytes one fully fragmented page holds against 4,096
# records.  Gates nothing.  About ten seconds.
bench-shadow:
	PYTHONPATH=src python benchmarks/bench_shadow.py

# Publish `repro` process startup into the startup section of
# BENCH_throughput.json: median child seconds of `import repro.cli`, `repro
# critpath` and `repro timeline` on a fixed synthetic log, and `repro
# profile blackscholes`, each with every module compiled from source and
# with warm bytecode, and the `repro.*` modules each loads.  Gates nothing.
# About a minute.
bench-startup:
	PYTHONPATH=src python benchmarks/bench_startup.py

# Publish the paper pipe's cost into BENCH_pipeline.json: cold `repro
# profile --reuse --events --callgrind-out` processes for streamcluster,
# facesim and raytrace at simlarge, end to end (median and quartiles), peak
# RSS and per phase, next to the same runs with every pipe behind the batched
# transport.  Fails only if the two sides write different bytes; it gates
# no speed yet.  About three minutes.
bench-pipeline:
	PYTHONPATH=src python benchmarks/bench_pipeline.py

# Rewrite the golden-profile fixtures in tests/golden/ (and events.json, the
# digest of the sigil-reuse event log).  Run this ONLY when
# a change to the profiler's observable output is intentional, and commit
# the fixture diff with the change that caused it.  The golden tests print
# a unified diff and point here when pinned output diverges.
regen-golden:
	PYTHONPATH=src python -m tests.golden.regen

benches figures:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

examples:
	PYTHONPATH=src python examples/quickstart.py
	PYTHONPATH=src python examples/partitioning_study.py
	PYTHONPATH=src python examples/reuse_study.py
	PYTHONPATH=src python examples/critical_path_study.py
	PYTHONPATH=src python examples/custom_workload.py
	PYTHONPATH=src python examples/parallel_pipeline.py
	PYTHONPATH=src python -m repro run examples/toy_program.s
	PYTHONPATH=src python -m repro run examples/matmul.s

clean:
	rm -rf benchmarks/results .pytest_cache .benchmarks
	rm -rf .campaign-smoke .campaign-smoke-serial .serve-smoke .repro-campaigns
	rm -f .telemetry-smoke*.manifest.json *.trace.json *.collapsed
	find . -name __pycache__ -type d -exec rm -rf {} +
