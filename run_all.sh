#!/bin/bash
# Regenerates every table and figure of the paper, plus ablations and
# the in-order extension. Outputs land in results/. SSIM_QUICK=1 for a
# fast smoke pass; budgets tuned for a single-core box.
#
#   ./run_all.sh         # the full artifact set
#   ./run_all.sh --deep  # additionally runs the deep bench tier
#                        # (./ci.sh deep): full-grid thread-scaling
#                        # curve with efficiency gates and the
#                        # 10k-connection load story
set -u -o pipefail
DEEP=0
if [ "${1:-}" = "--deep" ]; then DEEP=1; shift; fi
mkdir -p results
# Gate through the shared CI script (the same stages the workflow
# runs): rustfmt-clean, clippy-clean, rustdoc-clean, release build —
# before any experiment budget is spent.
./ci.sh fmt || exit 1
./ci.sh clippy || exit 1
./ci.sh doc || exit 1
./ci.sh build || exit 1
# Assembler front-end gate: corpus assembles + halts through the CLI,
# native workloads re-emit to identical streams, parser fuzz smoke.
./ci.sh asm || exit 1
# Every exhibit run emits machine-readable pipeline metrics by default
# (results/METRICS_<bin>.json); export SSIM_METRICS=0 to opt out. The
# timed run (scaling) always runs with metrics off, so recording never
# shows in a committed timing. (Arguments after the bin name are env
# assignments; a later one wins.)
SSIM_METRICS="${SSIM_METRICS:-json}"
# An exhibit is its bin's stdout alone. Its stderr (the metrics report
# or the path of the metrics file, wall times, and cargo's own
# messages) goes to target/run_all/<bin>.stderr, so rerunning an
# unchanged exhibit rewrites results/<bin>.txt byte for byte. The
# stdout lands in target/run_all/<bin>.txt and moves into results/
# only when the bin exits 0, so a failed run keeps the committed
# exhibit and a missing bin leaves no file.
mkdir -p target/run_all
run() {
  b="$1"; shift
  echo "[$(date +%H:%M:%S)] running $b"
  env SSIM_METRICS="$SSIM_METRICS" "$@" cargo run --release -q -p ssim-bench --bin "$b" \
    > "target/run_all/$b.txt" 2> "target/run_all/$b.stderr" \
    || { echo "$b FAILED (see target/run_all/$b.stderr)"; exit 1; }
  mv "target/run_all/$b.txt" "results/$b.txt"
}
# The exhibits and their budgets are the lines of exhibits.txt, which
# ./ci.sh exhibits reruns to check results/ byte for byte.
while read -r -a line <&3; do
  case "${line[0]:-#}" in '#'*) continue ;; esac
  run "${line[@]}"
done 3<exhibits.txt
# Gateway + load story: open-loop loadgen through a gateway over
# fault-injecting backends with the zero-lost/zero-duplicated ack gate.
# ./ci.sh leaves the tree alone and puts its ledgers in
# target/ci-results/; this script records them in results/.
./ci.sh load || exit 1
cp target/ci-results/BENCH_load.json results/
# The repository benchmark (per-layer speed, repeated passes, pinned
# output digests): its self-tests run short sweep, study and serve
# runs checked against the digests.
./ci.sh perfbench || exit 1
# Thread-scaling curve over the quick §4.6 grid (byte-identity across
# thread counts asserted; speedup gate enforced on multi-core hosts);
# writes results/BENCH_scaling.json.
run scaling                   SSIM_QUICK=1 SSIM_THREADS=2 SSIM_METRICS=0
# Deep tier (--deep): rerun scaling on the full grid with the
# efficiency-gated thread curve and the 10k-connection load story; their
# ledgers replace the quick ones in results/.
if [ "$DEEP" = 1 ]; then
  echo "[$(date +%H:%M:%S)] running deep bench tier (./ci.sh deep)"
  ./ci.sh deep || exit 1
  cp target/ci-results/BENCH_scaling.json target/ci-results/BENCH_load.json results/
fi
echo "[$(date +%H:%M:%S)] all experiments complete"
