# Convenience targets for the Noctua reproduction.

PYTHON ?= python3

.PHONY: install test test-fast coverage bench bench-full perfbench-counts \
	perf-ab examples chaos engine-chaos difftest difftest-directed \
	trace-demo metrics-demo serve-demo docs-lint clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

coverage:
	$(PYTHON) -m pytest tests/ --cov=repro --cov-report=term-missing

difftest:
	$(PYTHON) -m repro difftest --seeds 50 --timeout 4
	$(PYTHON) -m repro difftest --replay

# Slow: the full acceptance sweep — directed pair walk at the 300-eval
# budget, a k=3 DPOR schedule sweep, and the directed-vs-random A/B
# benchmark (asserts directed strictly wins and pruning stays <= 50%).
difftest-directed:
	$(PYTHON) -m repro difftest --directed --seeds 5 --budget 300 --shrink
	$(PYTHON) -m repro difftest --directed --seeds 5 --budget 200 --k 3 --shrink
	$(PYTHON) benchmarks/bench_directed_ab.py

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# The benchmark's exact counts (interpreter, check and solver calls) must
# be identical across runs and PYTHONHASHSEED values.
perfbench-counts:
	$(PYTHON) perfbench/check_counts.py

# Alternating parent/change benchmark runs: per-metric medians, quartiles
# and the change's win count (see tools/perf_ab.py).  PARENT must differ
# from the working tree; after committing, pass e.g. PARENT=HEAD~1.
PARENT ?= HEAD
WORKLOAD ?= cold-serial
PAIRS ?= 10
perf-ab:
	$(PYTHON) tools/perf_ab.py --parent $(PARENT) --workload $(WORKLOAD) \
		--pairs $(PAIRS)

chaos:
	$(PYTHON) -m repro chaos postgraduation --seed 3 --ops 200
	$(PYTHON) -m repro chaos smallbank --seed 1 --ops 120 --faults all

engine-chaos:
	$(PYTHON) -m repro engine-chaos --seeds 5 --jobs 2
	$(PYTHON) -m repro engine-chaos --seeds 10 --jobs 1

trace-demo:
	$(PYTHON) -m repro trace courseware --quick --jobs 2 \
		--out trace-demo.jsonl
	$(PYTHON) tools/check_trace.py trace-demo.jsonl

metrics-demo:
	$(PYTHON) -m repro metrics courseware --quick --jobs 2 \
		--out metrics-demo.json --out metrics-demo.prom
	$(PYTHON) tools/check_metrics.py metrics-demo.prom metrics-demo.json

serve-demo:
	$(PYTHON) tools/serve_smoke.py

docs-lint:
	$(PYTHON) tools/docs_lint.py

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/banking_invariants.py
	$(PYTHON) examples/analyze_custom_app.py
	$(PYTHON) examples/replication_necessity.py
	$(PYTHON) examples/geo_replication_performance.py

clean:
	rm -rf benchmarks/out .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
