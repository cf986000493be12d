# Convenience targets; the CI workflow runs the same commands.

PYTHON ?= python

.PHONY: test lp-goldens lint docs docs-serve bench bench-large bench-transient bench-fluid bench-fluid-large bench-kron bench-kron-large smoke-kron clean

test:
	$(PYTHON) -m pytest -x -q

# The LP goldens pin bounds bit for bit on the HiGHS build they were
# recorded with (scipy 1.17.1's vendored copy) and skip on any other;
# with them runs the check that every derived throughput bound equals
# the solved one.  Fails if any of these tests skips, so run it on
# scipy 1.17.1 (the CI lp-goldens job does).
LP_GOLDEN_TESTS = tests/runtime/test_lp_golden.py tests/runtime/test_lp_throughput.py

lp-goldens:
	@out=$$($(PYTHON) -m pytest $(LP_GOLDEN_TESTS) -rs); status=$$?; \
	echo "$$out"; \
	if [ $$status -ne 0 ]; then exit $$status; fi; \
	if echo "$$out" | grep -qiE "skipped"; then \
		echo "an LP golden test skipped: run on scipy 1.17.1" >&2; exit 1; \
	fi

lint:
	ruff check src tests benchmarks examples docs

docs:
	$(PYTHON) docs/gen_gallery.py
	mkdocs build --strict

docs-serve: docs
	mkdocs serve

# Quick benchmark preset with the JSON reporter (writes the untracked
# BENCH_lp_scaling.quick.json; see the naming contract in
# benchmarks/bench_reporting.py).  CI uploads the quick artifact and
# gates it with `python -m repro.obs sentinel baseline`; fails on
# reporter errors, never timing noise.
bench:
	REPRO_BENCH_PRESET=quick $(PYTHON) -m pytest benchmarks/test_bench_lp_scaling.py -q

# Full-fidelity preset (the paper's 10 MAP(2) queues at N = 50); enforces
# the large-preset LP gates of repro.obs.sentinel (persistent sweep,
# assembly speedup, instrumentation overhead) and regenerates the tracked
# perf baseline.
bench-large:
	REPRO_BENCH_PRESET=large $(PYTHON) -m pytest benchmarks/test_bench_lp_scaling.py -q

# Transient-engine benchmark with its own JSON reporter: gates the >= 5x
# multi-time-point reuse over naive per-t uniformization (deterministic
# matvec counts, so CI enforces it) and regenerates the tracked
# BENCH_transient.json baseline in the large preset.
bench-transient:
	REPRO_BENCH_PRESET=large $(PYTHON) -m pytest benchmarks/test_bench_transient.py -q

# Fluid-tier benchmark at the quick preset (N = 100,000): gates the
# state-space tripwire, the N = 1 exactness margin, and the monotone
# doubling-population convergence (writes the untracked
# BENCH_fluid.quick.json).
bench-fluid:
	REPRO_BENCH_PRESET=quick $(PYTHON) -m pytest benchmarks/test_bench_fluid.py -q

# Million-user preset: the PR's acceptance record — stress scenario at
# N = 1,000,000 solved steady + transient in well under a second with
# the CTMC state space tripwired.  Regenerates the tracked
# BENCH_fluid.json baseline.
bench-fluid-large:
	REPRO_BENCH_PRESET=large $(PYTHON) -m pytest benchmarks/test_bench_fluid.py -q

# Kronecker-backend benchmark at the materializable quick shape: gates
# the deterministic operator-vs-CSR memory win and the operator-backend
# registry dispatch (writes the untracked BENCH_kron.quick.json).
bench-kron:
	REPRO_BENCH_PRESET=quick $(PYTHON) -m pytest benchmarks/test_bench_kron.py -q

# Past-the-wall preset: kron-ring at (M=6, N=18) — 2,153,536 states,
# beyond the 2,000,000-state dense guard — solved exactly and
# transiently on the operator backend.  Regenerates the tracked
# BENCH_kron.json acceptance record (takes several minutes: two Krylov
# steady solves at 2.1M unknowns on one core).
bench-kron-large:
	REPRO_BENCH_PRESET=large $(PYTHON) -m pytest benchmarks/test_bench_kron.py -q

# End-to-end smoke of the matrix-free Kronecker backend: a catalog-scale
# ring past the dense storage wall solved exactly (Krylov) and
# transiently with build_generator tripwired, disk-cache replay under
# the other backend label, and a <= 5% simulation cross-check.  Takes
# several minutes (two 2.1M-unknown Krylov solves on one core).
smoke-kron:
	$(PYTHON) benchmarks/smoke_kron.py

clean:
	rm -rf site .repro-cache .pytest_cache
