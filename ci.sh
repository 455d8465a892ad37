#!/bin/bash
# The canonical CI gate. Every check .github/workflows/ci.yml runs maps
# to a stage of this script, and run_all.sh front-loads the same stages,
# so CI can never disagree with a developer box: if `./ci.sh` passes
# locally, the workflow's check jobs pass too.
#
#   ./ci.sh            # everything (fmt, clippy, build, test, asm,
#                      # smoke, dse, load, perfbench)
#   ./ci.sh fmt        # rustfmt, check only
#   ./ci.sh clippy     # clippy, warnings are errors
#   ./ci.sh build      # release build, all targets
#   ./ci.sh test       # full test suite (includes the journal
#                      # SIGKILL-and-resume drill against the real
#                      # ssim-serve binary)
#   ./ci.sh smoke      # the 2-thread sweep-scaling smoke and the §4.6
#                      # sweep diffed at 1 vs 2 threads (SSIM_QUICK)
#   ./ci.sh asm        # assembler front-end: corpus assembles through
#                      # the real CLI, native workloads re-emit to
#                      # identical streams, parser fuzz smoke
#   ./ci.sh dse        # surrogate-guided planner vs exhaustive truth
#                      # on the real §4.6 space (SSIM_QUICK)
#   ./ci.sh load       # loadgen chaos gate: open-loop load through a
#                      # gateway over fault-injecting backends, zero
#                      # lost/duplicated acks (SSIM_QUICK)
#   ./ci.sh perfbench  # the repository benchmark's self-tests: short
#                      # sweep, study and serve runs checked against
#                      # their pinned output digests
#   ./ci.sh deep       # deep bench tier (not part of `all`; manual or
#                      # nightly): full §4.6 thread-scaling curve with
#                      # parallel-efficiency gates and the
#                      # 10k-connection load story
set -euo pipefail

stage() { echo "[ci $(date +%H:%M:%S)] $*"; }

do_fmt() {
  stage "cargo fmt --check"
  cargo fmt --check
}

do_clippy() {
  stage "cargo clippy --all-targets -- -D warnings"
  cargo clippy --all-targets -- -D warnings
}

do_build() {
  stage "cargo build --release"
  cargo build --release
}

do_test() {
  stage "cargo test -q"
  cargo test -q
}

do_smoke() {
  # (The service and fleet are checked end to end by the test suite —
  # loopback, fleet_chaos, and shutdown_ack and journal_chaos against
  # the real binary — and by the load and perfbench stages.)
  #
  # Thread-scaling smoke over the quick §4.6 grid at 2 threads:
  # asserts byte-identity across thread counts and (on multi-core
  # hosts) gates speedup(2) >= 1.5; single-core hosts record the curve
  # without enforcing.
  stage "scaling (2-thread sweep smoke)"
  SSIM_QUICK=1 SSIM_THREADS=2 cargo run --release -q -p ssim-bench --bin scaling
  # Thread determinism: the §4.6 exhibit must print the same bytes at
  # 1 and 2 threads, so per-thread engine state (working buffers, the
  # walk an engine keeps for its next point) can never leak into
  # results.
  stage "sec46_design_space (1 vs 2 threads, byte-identical)"
  sec46_thread_diff
}

# Runs sec46_design_space at 1 and at 2 threads with quick budgets and
# diffs the two reports. A subshell, so the EXIT trap always removes
# the temp dir, pass or fail.
sec46_thread_diff() (
  set -euo pipefail
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  for t in 1 2; do
    SSIM_QUICK=1 SSIM_PROFILE_INSTR=300000 SSIM_EDS_INSTR=200000 SSIM_SKIP=100000 \
      SSIM_THREADS="$t" cargo run --release -q -p ssim-bench --bin sec46_design_space \
      >"$tmp/threads$t.txt"
  done
  diff "$tmp/threads1.txt" "$tmp/threads2.txt"
)

do_asm() {
  # Assembler front-end gate. Three layers: every shipped corpus
  # program assembles (and bounded-runs) through the real CLI; the
  # differential harness proves the native workloads re-emit through
  # text to byte-identical programs and dynamic streams; a deterministic
  # fuzz pass (token soup + mutated corpus) proves the parser returns
  # diagnostics instead of panicking.
  stage "ssim-asm build --run (corpus assembles and halts)"
  cargo run --release -q -p ssim-asm --bin ssim-asm -- \
    build --define ROUNDS=2 --run 5000000 programs/*.asm
  stage "asm differential (native workloads re-emit identically)"
  cargo test --release -q -p ssim-workloads --test asm_differential
  stage "asm fuzz smoke (deterministic soup + corpus mutation)"
  cargo test --release -q -p ssim-asm --test fuzz
}

do_dse() {
  # Surrogate-guided DSE planner against exhaustive ground truth on the
  # real §4.6 space: asserts the budget, Pareto-gap, stratum-error and
  # byte-determinism gates internally, and writes
  # results/BENCH_dse.json.
  stage "dse (planner vs exhaustive, quick space)"
  mkdir -p results
  SSIM_QUICK=1 cargo run --release -q -p ssim-bench --bin dse
}

# Shared body of the load stages: three fault-injecting backends, a
# gateway over them, and the open-loop loadgen with its zero-lost /
# zero-duplicated ack gate. Runs in a subshell so the EXIT trap always
# reaps the servers and the temp dir, pass or fail. Scale comes from
# the caller's SSIM_QUICK / SSIM_DEEP (and the SSIM_LOAD_* knobs).
run_loadgen() (
  set -euo pipefail
  tmp="$(mktemp -d)"
  pids=()
  trap '[ "${#pids[@]}" -gt 0 ] && kill "${pids[@]}" 2>/dev/null; rm -rf "$tmp"' EXIT
  # Thousands of concurrent sockets need headroom over the default
  # soft fd limit (best effort — the hard limit is the ceiling).
  ulimit -n "$(ulimit -Hn)" 2>/dev/null || true
  SSIM_FAULT_PLAN="drop:0.05,delay:1ms@7" target/release/ssim-serve serve \
    --addr 127.0.0.1:0 --port-file "$tmp/b0.port" --workers 2 >"$tmp/b0.log" 2>&1 &
  pids+=($!)
  SSIM_FAULT_PLAN="reject:0.1@11" target/release/ssim-serve serve \
    --addr 127.0.0.1:0 --port-file "$tmp/b1.port" --workers 2 >"$tmp/b1.log" 2>&1 &
  pids+=($!)
  target/release/ssim-serve serve \
    --addr 127.0.0.1:0 --port-file "$tmp/b2.port" --workers 2 >"$tmp/b2.log" 2>&1 &
  pids+=($!)
  for _ in $(seq 1 300); do
    [ -f "$tmp/b0.port" ] && [ -f "$tmp/b1.port" ] && [ -f "$tmp/b2.port" ] && break
    sleep 0.1
  done
  [ -f "$tmp/b2.port" ] || { echo "backends never wrote their port files" >&2; exit 1; }
  target/release/ssim-serve gateway --addr 127.0.0.1:0 --port-file "$tmp/gw.port" \
    "$(cat "$tmp/b0.port")" "$(cat "$tmp/b1.port")" "$(cat "$tmp/b2.port")" \
    >"$tmp/gw.log" 2>&1 &
  pids+=($!)
  for _ in $(seq 1 300); do [ -f "$tmp/gw.port" ] && break; sleep 0.1; done
  [ -f "$tmp/gw.port" ] || { echo "gateway never wrote its port file" >&2; exit 1; }
  mkdir -p results
  target/release/loadgen "$(cat "$tmp/gw.port")"
)

do_load() {
  # The chaos/load gate: a gateway over backends that drop, delay and
  # reject must still lose or duplicate zero acknowledgements under
  # 1k-connection open-loop load. Writes results/BENCH_load.json.
  do_build
  stage "loadgen (gateway over chaos backends, SSIM_QUICK)"
  SSIM_QUICK=1 run_loadgen
}

do_perfbench() {
  # The repository benchmark (perfbench/, its own cargo workspace) run
  # as a test: a short sweep, study and serve run, traced and not, each
  # checked against the output digests pinned in perfbench/src/pinned.rs
  # and against the metric names BENCHMARK.json declares.
  stage "perfbench self-tests (short runs vs pinned digests)"
  cargo test --release --offline --manifest-path perfbench/Cargo.toml
}

do_deep() {
  # Deep bench tier — the full §4.6 design space across the
  # threads={1,4,8,16} curve (parallel efficiency gated at threads=4 on
  # hosts with >= 4 cores) and the 10k-connection load story. Too
  # heavy for the per-push gate: run manually or from the
  # nightly/dispatch CI job.
  do_build
  stage "scaling (deep: full grid, threads={1,4,8,16})"
  mkdir -p results
  SSIM_DEEP=1 SSIM_METRICS=0 cargo run --release -q -p ssim-bench --bin scaling
  stage "loadgen (deep: 10k connections)"
  SSIM_DEEP=1 run_loadgen
}

case "${1:-all}" in
  fmt)    do_fmt ;;
  clippy) do_clippy ;;
  build)  do_build ;;
  test)   do_test ;;
  smoke)  do_smoke ;;
  asm)    do_asm ;;
  dse)    do_dse ;;
  load)   do_load ;;
  perfbench) do_perfbench ;;
  deep)   do_deep ;;
  all)
    do_fmt
    do_clippy
    do_build
    do_test
    do_asm
    do_smoke
    do_dse
    do_load
    do_perfbench
    stage "all stages passed"
    ;;
  *)
    echo "usage: ./ci.sh [fmt|clippy|build|test|smoke|asm|dse|load|perfbench|deep|all]" >&2
    exit 2
    ;;
esac
