# Local verification targets. Where .github/workflows/ci.yml runs one of
# these steps it calls the target, so "make <target>" locally reproduces
# exactly what CI gates on and each recipe has one spelling.

.PHONY: all build bench-check test lint fmt bench-smoke perf-smoke bench bench-repeat arch-gate arch-gate-check profile-smoke perf-full proptest-deep serve-smoke chaos clean

all: build bench-check test lint bench-smoke perf-smoke profile-smoke serve-smoke chaos

# CI job: build (release)
build:
	cargo build --release --locked

# CI job: build — benchmark/ is a separate workspace and the one consumer
# of the product crates' APIs outside tier-1 (BENCHMARK.json freezes its
# sources), so an API change must be shown not to break it. It pins:
# FabricMachine::new/run_limited, GpuMachine::new/run_limited,
# Machine::{new, run, run_observed}, dmt_bench::{execute_job,
# execute_job_observed, execute_job_limited, geomean_rows, RowOutcome},
# ExecPlan::{new, threads, cache, run},
# CalendarQueue::{new, schedule, advance, pop_due, next_time}.
bench-check:
	cargo check --offline --all-targets --manifest-path benchmark/Cargo.toml

# CI job: test — exactly the tier-1 verify command
test:
	cargo test -q --locked

# CI job: fmt + clippy
lint:
	cargo fmt --check
	cargo clippy --all-targets --locked -- -D warnings

# Applies formatting (lint only checks it).
fmt:
	cargo fmt

# CI job: example + bench smoke (parallel runner + JSON artifact + result
# cache, mirroring the bench-artifact CI job: cold run fills the cache, the
# warm rerun must hit for every job and reproduce the jobs array exactly).
# The smoke cache is wiped first so the cold run is genuinely cold — the
# job_hash key does not cover simulator sources, and a stale cache would
# report pre-edit numbers (CI gets the same guarantee by keying its
# persisted cache on the hash of every .rs file).
bench-smoke:
	cargo run --release --locked --example quickstart
	cargo run --release --locked -p dmt-bench --bin fig11_speedup -- --smoke
	rm -rf artifacts/smoke-cache
	cargo run --release --locked -p dmt-bench --bin fig11_speedup -- \
		--smoke --threads 2 --json artifacts/smoke.json --cache artifacts/smoke-cache
	cargo run --release --locked -p dmt-bench --bin fig11_speedup -- \
		--smoke --threads 2 --json artifacts/smoke-warm.json --cache artifacts/smoke-cache
	python3 ci/bench_regress.py artifacts/smoke.json artifacts/smoke-warm.json \
		--require-identical

# CI step: perf-smoke — simulator wall-clock throughput (informational,
# host-dependent; the deterministic-cycles gate lives in bench-smoke),
# followed by the tracing-overhead gate: the untraced engine must stay
# ahead of the vendored pre-overhaul baseline.
perf-smoke:
	cargo run --release --locked -p dmt-bench --bin bench_hotpath -- \
		--json artifacts/BENCH_hotpath.json
	python3 ci/overhead_gate.py artifacts/BENCH_hotpath.json

# CI step (non-gating): bench — the repo benchmark declared by
# BENCHMARK.json, the instrument for performance claims: five workloads,
# each timed end to end and then traced per layer; every metric printed
# by name and the run record written to benchmark/out/report.json (see
# benchmark/README.md). BENCH is BENCHMARK.json's own command line.
# bench-repeat runs everything twice, interleaved, and exits non-zero
# when a gap between the two exceeds its bound or a sim.* metric differs.
# Neither is part of `all`: minutes of wall time, host-dependent.
BENCH = cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml --
bench:
	$(BENCH) --all

bench-repeat:
	$(BENCH) --repeat 2

# CI step: arch-gate-check — the per-arch throughput gate over an
# existing artifacts/BENCH_hotpath.json (the workflow measures it in its
# perf-smoke step): MT-CGRA sim-cycles/sec must stay within 5% of the
# previous run's artifact (CI persists it as baseline-hotpath.json; the
# first run skips cleanly) and under the absolute MT/SM slowdown ceiling.
# DMT_MAX_MT_SM_RATIO is spelled here and nowhere else — it sits above
# the local best-of measurement to absorb shared-runner timing noise;
# ratchet it down as engine work closes the gap. `make arch-gate` is the
# local form: a fresh measurement (perf-smoke), then the check.
DMT_MAX_MT_SM_RATIO ?= 8.5
arch-gate:
	$(MAKE) perf-smoke
	$(MAKE) arch-gate-check

arch-gate-check:
	python3 ci/arch_gate.py artifacts/BENCH_hotpath.json \
		--baseline artifacts/trajectory/baseline-hotpath.json \
		--max-mt-sm-ratio $(DMT_MAX_MT_SM_RATIO)

# CI step: profile-smoke — the hot-spot profile of the smoke suite
# (byte-identical for any --threads N; locked by tests/golden_profile.rs).
profile-smoke:
	cargo run --release --locked -p dmt-bench --bin profile_hotspots -- \
		--smoke --threads 2 --json artifacts/BENCH_profile.json

# Full Table 3 throughput sweep (all nine benchmarks × three machines).
# Deliberately NOT part of `all` or CI's push path — the headline `total`
# block stays the smoke measurement either way, so trends remain
# like-for-like; run this locally when profiling engine changes.
perf-full:
	cargo run --release --locked -p dmt-bench --bin bench_hotpath -- \
		--full --json artifacts/BENCH_hotpath_full.json

# CI job (scheduled): proptest-deep — the differential property suites
# at 16x the push-path case count. DMT_PROPTEST_CASES overrides every
# suite's configured count; the vendored proptest scales its rejection
# budget to match. Override locally: make proptest-deep DEEP_CASES=512.
DEEP_CASES ?= 2048
proptest-deep:
	DMT_PROPTEST_CASES=$(DEEP_CASES) cargo test -q --locked \
		--test properties --test token_storm

# CI job: serve-smoke — boot the daemon, race 4 clients through the
# smoke grid over TCP, assert byte-identical results, memoized
# duplicates, and a clean drain (exit 0). The cache dir is wiped first
# so wave 1 genuinely simulates.
serve-smoke:
	cargo build --release --locked -p dmt-serve
	rm -rf artifacts/serve-smoke
	python3 ci/serve_smoke.py --binary target/release/dmt-serve --out artifacts/serve-smoke

# CI job: chaos-smoke — the built binaries under a fixed adversarial
# fault schedule: cache write/rename faults absorbed and replayed
# byte-identically, deadlines typed as timed_out (traced or not), one
# pool.exec fault costs exactly one job, and the daemon survives a
# poisoned response, a per-job deadline and hostile clients (raw bytes,
# 100k-deep nesting, an oversize and an endless line) and still drains
# clean. The
# in-process chaos invariants live in tests/chaos.rs (part of
# `make test`); this drives the same seams over argv and TCP.
chaos:
	cargo build --release --locked -p dmt-bench -p dmt-serve
	python3 ci/chaos_smoke.py \
		--bench-binary target/release/fig11_speedup \
		--serve-binary target/release/dmt-serve \
		--out artifacts/chaos-smoke

clean:
	cargo clean
