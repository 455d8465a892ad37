#!/bin/bash
# The canonical CI gate. Every check .github/workflows/ci.yml runs maps
# to a stage of this script, and run_all.sh front-loads the same stages,
# so CI can never disagree with a developer box: if `./ci.sh` passes
# locally, the workflow's check jobs pass too.
#
#   ./ci.sh            # everything (fmt, clippy, doc, build, test,
#                      # asm, smoke, load, perfbench)
#   ./ci.sh fmt        # rustfmt, check only
#   ./ci.sh clippy     # clippy, warnings are errors
#   ./ci.sh doc        # rustdoc for every crate, warnings are errors
#                      # (broken or private intra-doc links)
#   ./ci.sh build      # release build, all targets
#   ./ci.sh test       # full test suite (includes the journal
#                      # SIGKILL-and-resume drill against the real
#                      # ssim-serve binary)
#   ./ci.sh smoke      # the 2-thread sweep-scaling smoke, and the §4.6
#                      # sweep (SSIM_QUICK) and two server sweeps each
#                      # diffed at 1 vs 2 threads
#   ./ci.sh asm        # assembler front-end: corpus assembles through
#                      # the real CLI, native workloads re-emit to
#                      # identical streams, parser fuzz smoke
#   ./ci.sh load       # loadgen chaos gate: open-loop load through a
#                      # gateway over fault-injecting backends, then
#                      # straight at one backend; zero lost/duplicated
#                      # acks in both runs (SSIM_QUICK)
#   ./ci.sh perfbench  # the repository benchmark's self-tests: short
#                      # sweep, study and serve runs checked against
#                      # their pinned output digests
#   ./ci.sh deep       # deep bench tier (not part of `all`; manual or
#                      # nightly): full §4.6 thread-scaling curve with
#                      # parallel-efficiency gates and the
#                      # 10k-connection load story (gateway and bare
#                      # backend)
#
# No stage writes into the tree: the bins that write a ledger
# (scaling, loadgen) run in a temporary directory, and each
# ledger they write is copied to target/ci-results/. The committed
# results/BENCH_*.json come from ./run_all.sh.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ci_results="$root/target/ci-results"

stage() { echo "[ci $(date +%H:%M:%S)] $*"; }

# Runs a bench bin (`bench_bin <bin> <ledger>`) in a temporary working
# directory, reading and filling the repository's profile cache, and
# copies the ledger it wrote (results/<ledger>) to target/ci-results/.
bench_bin() (
  set -euo pipefail
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  cd "$tmp"
  SSIM_PROFILE_CACHE_DIR="${SSIM_PROFILE_CACHE_DIR:-$root/results/.profile-cache}" \
    cargo run --release -q --manifest-path "$root/Cargo.toml" -p ssim-bench --bin "$1"
  mkdir -p "$ci_results"
  cp "results/$2" "$ci_results/"
)

do_fmt() {
  stage "cargo fmt --check"
  cargo fmt --check
}

do_clippy() {
  stage "cargo clippy --all-targets -- -D warnings"
  cargo clippy --all-targets -- -D warnings
}

do_doc() {
  stage "cargo doc --no-deps --workspace (warnings are errors)"
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
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
  # (The service and the gateway are checked end to end by the test
  # suite — loopback, fleet_chaos, and shutdown_ack and journal_chaos
  # against the real binary — and by the load and perfbench stages.)
  #
  # Thread-scaling smoke over the quick §4.6 grid at 2 threads:
  # asserts byte-identity across thread counts and (on multi-core
  # hosts) gates speedup(2) >= 1.5; single-core hosts record the curve
  # without enforcing.
  stage "scaling (2-thread sweep smoke)"
  SSIM_QUICK=1 SSIM_THREADS=2 bench_bin scaling BENCH_scaling.json
  # Thread determinism: the §4.6 exhibit must print the same bytes at
  # 1 and 2 threads, so per-thread engine state (working buffers, the
  # walk an engine keeps for its next point) can never leak into
  # results.
  stage "sec46_design_space (1 vs 2 threads, byte-identical; segments replayed)"
  sec46_thread_diff
  # The same for the server: `cargo test` runs the serve tests at the
  # host's thread count only, and at 1 thread a sweep runs on the
  # worker's own engine, whose kept walk and results outlive the
  # request.
  stage "ssim-serve sweeps (1 vs 2 threads, byte-identical)"
  serve_thread_diff
}

# Runs sec46_design_space at 1 and at 2 threads with quick budgets and
# diffs the two reports. The 1-thread run also reports its metrics (on
# stderr, so the diffed stdout is unchanged), and the stage fails if it
# replayed no segment: segment reuse keeps results exact whether or not
# its boundary test ever matches, so nothing else would notice it stop.
# A subshell, so the EXIT trap always removes the temp dir, pass or
# fail.
sec46_thread_diff() (
  set -euo pipefail
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  for t in 1 2; do
    SSIM_QUICK=1 SSIM_PROFILE_INSTR=300000 SSIM_EDS_INSTR=200000 SSIM_SKIP=100000 \
      SSIM_THREADS="$t" SSIM_METRICS="$((t == 1))" \
      cargo run --release -q -p ssim-bench --bin sec46_design_space \
      >"$tmp/threads$t.txt" 2>"$tmp/metrics$t.txt"
  done
  diff "$tmp/threads1.txt" "$tmp/threads2.txt"
  reused="$(awk '$1 == "counter" && $2 == "tracesim.segments_reused" { print $3 }' "$tmp/metrics1.txt")"
  if [ "${reused:-0}" -eq 0 ]; then
    echo "sec46_design_space replayed no segment (tracesim.segments_reused: ${reused:-absent})" >&2
    exit 1
  fi
  echo "tracesim.segments_reused $reused at 1 thread"
)

# Starts `ssim-serve serve` at 1 and at 2 threads, sends each the same
# two multi-seed sweeps with `ssim-serve client` and diffs the replies.
# The sweeps share a seed but no machine, so at 1 thread the second one
# starts on the walk the first left on the worker's engine, and answers
# its 1,024-entry window from the first's kept 512-entry result. A
# subshell, so the EXIT trap always stops the servers and removes the
# temp dir, pass or fail.
serve_thread_diff() (
  set -euo pipefail
  tmp="$(mktemp -d)"
  pids=()
  trap '[ "${#pids[@]}" -eq 0 ] || kill "${pids[@]}" 2>/dev/null || true; rm -rf "$tmp"' EXIT
  cargo build --release -q -p ssim-serve
  bin="$root/target/release/ssim-serve"
  profile='"workload":"gzip","instructions":300000,"skip":100000,"r":15'
  first='{"kind":"sweep",'"$profile"',"seeds":[1,2],
    "machines":[{"window":64},{"window":512},{"width":2,"window":16}]}'
  second='{"kind":"sweep",'"$profile"',"seeds":[2,3],
    "machines":[{"window":128},{"window":1024},{"width":2,"window":24}]}'
  for t in 1 2; do
    SSIM_THREADS="$t" SSIM_PROFILE_CACHE_DIR="${SSIM_PROFILE_CACHE_DIR:-$root/results/.profile-cache}" \
      "$bin" serve --addr 127.0.0.1:0 --port-file "$tmp/t$t.port" >"$tmp/t$t.log" 2>&1 &
    pids+=($!)
    wait_port "$tmp/t$t.port"
    addr="$(cat "$tmp/t$t.port")"
    "$bin" client "$addr" "$first" >"$tmp/threads$t.txt"
    "$bin" client "$addr" "$second" >>"$tmp/threads$t.txt"
    "$bin" client "$addr" shutdown >/dev/null
    wait "${pids[-1]}"
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

# Waits for a server's --port-file, or fails.
wait_port() {
  for _ in $(seq 1 300); do [ -f "$1" ] && return 0; sleep 0.1; done
  echo "no server wrote $1" >&2
  return 1
}

# Shared body of the load stages: the open-loop loadgen with its
# zero-lost / zero-duplicated ack gate, aimed at `gateway` (three
# fault-injecting backends behind a gateway; ledger BENCH_load.json) or
# at `backend` (one backend that rejects and delays but never drops,
# since nothing would retry a dropped request; ledger
# BENCH_load_backend.json). Runs in a subshell so the EXIT trap always
# reaps the servers and the temp dir, pass or fail. Scale comes from
# the caller's SSIM_QUICK / SSIM_DEEP. loadgen runs in the temp dir and
# its ledger is copied to target/ci-results/.
run_loadgen() (
  set -euo pipefail
  tmp="$(mktemp -d)"
  pids=()
  trap '[ "${#pids[@]}" -gt 0 ] && kill "${pids[@]}" 2>/dev/null; rm -rf "$tmp"' EXIT
  # Thousands of concurrent sockets need headroom over the default
  # soft fd limit (best effort — the hard limit is the ceiling).
  ulimit -n "$(ulimit -Hn)" 2>/dev/null || true
  bin="$root/target/release"
  if [ "$1" = backend ]; then
    SSIM_FAULT_PLAN="reject:0.1,delay:1ms@11" "$bin/ssim-serve" serve \
      --addr 127.0.0.1:0 --port-file "$tmp/target.port" --workers 2 >"$tmp/b.log" 2>&1 &
    pids+=($!)
    ledger=BENCH_load_backend.json
  else
    SSIM_FAULT_PLAN="drop:0.05,delay:1ms@7" "$bin/ssim-serve" serve \
      --addr 127.0.0.1:0 --port-file "$tmp/b0.port" --workers 2 >"$tmp/b0.log" 2>&1 &
    pids+=($!)
    SSIM_FAULT_PLAN="reject:0.1@11" "$bin/ssim-serve" serve \
      --addr 127.0.0.1:0 --port-file "$tmp/b1.port" --workers 2 >"$tmp/b1.log" 2>&1 &
    pids+=($!)
    "$bin/ssim-serve" serve \
      --addr 127.0.0.1:0 --port-file "$tmp/b2.port" --workers 2 >"$tmp/b2.log" 2>&1 &
    pids+=($!)
    wait_port "$tmp/b0.port" && wait_port "$tmp/b1.port" && wait_port "$tmp/b2.port"
    "$bin/ssim-serve" gateway --addr 127.0.0.1:0 --port-file "$tmp/target.port" \
      "$(cat "$tmp/b0.port")" "$(cat "$tmp/b1.port")" "$(cat "$tmp/b2.port")" \
      >"$tmp/gw.log" 2>&1 &
    pids+=($!)
    ledger=BENCH_load.json
  fi
  wait_port "$tmp/target.port"
  (cd "$tmp" && "$bin/loadgen" "$(cat "$tmp/target.port")")
  mkdir -p "$ci_results"
  cp "$tmp/results/BENCH_load.json" "$ci_results/$ledger"
)

do_load() {
  # The chaos/load gate: a gateway over backends that drop, delay and
  # reject, and then one bare backend that rejects and delays, must
  # each lose or duplicate zero acknowledgements under 1k-connection
  # open-loop load. Writes target/ci-results/BENCH_load.json and
  # BENCH_load_backend.json.
  do_build
  stage "loadgen (gateway over chaos backends, SSIM_QUICK)"
  SSIM_QUICK=1 run_loadgen gateway
  stage "loadgen (bare backend, SSIM_QUICK)"
  SSIM_QUICK=1 run_loadgen backend
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
  SSIM_DEEP=1 SSIM_METRICS=0 bench_bin scaling BENCH_scaling.json
  stage "loadgen (deep: 10k connections through the gateway)"
  SSIM_DEEP=1 run_loadgen gateway
  stage "loadgen (deep: 10k connections to a bare backend)"
  SSIM_DEEP=1 run_loadgen backend
}

case "${1:-all}" in
  fmt)    do_fmt ;;
  clippy) do_clippy ;;
  doc)    do_doc ;;
  build)  do_build ;;
  test)   do_test ;;
  smoke)  do_smoke ;;
  asm)    do_asm ;;
  load)   do_load ;;
  perfbench) do_perfbench ;;
  deep)   do_deep ;;
  all)
    do_fmt
    do_clippy
    do_doc
    do_build
    do_test
    do_asm
    do_smoke
    do_load
    do_perfbench
    stage "all stages passed"
    ;;
  *)
    echo "usage: ./ci.sh [fmt|clippy|doc|build|test|smoke|asm|load|perfbench|deep|all]" >&2
    exit 2
    ;;
esac
