# Common developer targets for the repro package.

PYTHON ?= python

# Per-test watchdog: use pytest-timeout when installed; otherwise
# tests/conftest.py arms a stdlib faulthandler fallback with the same
# 120 s budget, so hung concurrency tests abort with stack dumps.
TIMEOUT_FLAGS := $(shell $(PYTHON) -c "import pytest_timeout" 2>/dev/null \
	&& echo "--timeout=120 --timeout-method=thread")

.PHONY: install test test-ids lint bench bench-ab bench-smoke tune-smoke trace-demo figures quick-figures clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ $(TIMEOUT_FLAGS)

# Test ids collected at BASE (a git ref) but missing from the working
# tree; exits 1 when any is missing.
test-ids:
	@test -n "$(BASE)" || { echo "usage: make test-ids BASE=<git-ref>" >&2; exit 2; }
	$(PYTHON) tools/test_ids.py --base "$(BASE)"

lint:
	$(PYTHON) -m ruff check src tests benchmarks examples

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# A/B test of the working tree against BASE (a git ref) with bench/:
# PAIRS alternating seed pairs over all four workloads, then compare.py's
# table and each side's quartiles.  About 4 minutes per pair.
PAIRS ?= 10
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<git-ref> [PAIRS=10]" >&2; exit 2; }
	$(PYTHON) tools/bench_ab.py --base "$(BASE)" --pairs $(PAIRS)

# Tiny-size run of the memory-schedule, stacked-batch, GEMM-semantics
# and plan-store/autotune benchmarks, then schema + guard checks of the
# JSON reports they emit (BENCH_memory.json, BENCH_batch.json,
# BENCH_semantics.json, BENCH_tune.json).
bench-smoke: tune-smoke
	PYTHONPATH=src BENCH_MEMORY_QUICK=1 $(PYTHON) -m pytest \
		benchmarks/test_bench_memory.py -q
	$(PYTHON) benchmarks/validate_bench_memory.py
	PYTHONPATH=src BENCH_BATCH_QUICK=1 $(PYTHON) -m pytest \
		benchmarks/test_bench_batch.py -q
	$(PYTHON) benchmarks/validate_bench_batch.py
	PYTHONPATH=src BENCH_SEMANTICS_QUICK=1 $(PYTHON) -m pytest \
		benchmarks/test_bench_semantics.py -q
	$(PYTHON) benchmarks/validate_bench_semantics.py

# Tiny-shape autotune against a temp plan store, then schema + guard
# checks of BENCH_tune.json (warm store skips calibration; tuned plan
# never >2% slower than the heuristic default and bit-identical to it).
tune-smoke:
	PYTHONPATH=src BENCH_TUNE_QUICK=1 $(PYTHON) -m pytest \
		benchmarks/test_bench_tune.py -q
	$(PYTHON) benchmarks/validate_bench_tune.py

# Traced 513x513 multiply end to end; validates the dumped trace
# document against TRACE_SCHEMA and prints a per-kind histogram.
trace-demo:
	PYTHONPATH=src $(PYTHON) examples/trace_demo.py

figures:
	$(PYTHON) -m repro.experiments all

quick-figures:
	$(PYTHON) -m repro.experiments all --quick

clean:
	rm -rf build src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
