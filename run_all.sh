#!/bin/bash
# Regenerates every table and figure of the paper, plus ablations and
# the in-order extension. Outputs land in results/. SSIM_QUICK=1 for a
# fast smoke pass; budgets tuned for a single-core box.
#
#   ./run_all.sh         # the full artifact set
#   ./run_all.sh --deep  # additionally runs the deep bench tier
#                        # (./ci.sh deep): full-grid thread-scaling
#                        # curve with efficiency gates, 8-backend
#                        # fleet scaling, journal kill-and-resume
#                        # chaos, and the 10k-connection load story,
#                        # folded into BENCH_parallel.json
set -u -o pipefail
DEEP=0
if [ "${1:-}" = "--deep" ]; then DEEP=1; shift; fi
mkdir -p results
# Gate through the shared CI script (the same stages the workflow
# runs): rustfmt-clean, clippy-clean, release build — before any
# experiment budget is spent.
./ci.sh fmt || exit 1
./ci.sh clippy || exit 1
./ci.sh build || exit 1
# Assembler front-end gate: corpus assembles + halts through the CLI,
# native workloads re-emit to identical streams, parser fuzz smoke.
./ci.sh asm || exit 1
# Every run emits machine-readable pipeline metrics by default
# (results/METRICS_<bin>.json); export SSIM_METRICS=0 to opt out.
SSIM_METRICS="${SSIM_METRICS:-json}"
run() {
  b="$1"; shift
  echo "[$(date +%H:%M:%S)] running $b"
  env SSIM_METRICS="$SSIM_METRICS" "$@" cargo run --release -q -p ssim-bench --bin "$b" > "results/$b.txt" 2>&1 \
    || { echo "$b FAILED (see results/$b.txt)"; exit 1; }
}
run table1_baseline_ipc       SSIM_EDS_INSTR=1500000
run fig3_branch_mpki          SSIM_PROFILE_INSTR=2000000 SSIM_EDS_INSTR=1500000
run table3_sfg_nodes          SSIM_PROFILE_INSTR=2000000
run fig6_ipc_epc              SSIM_PROFILE_INSTR=2500000 SSIM_EDS_INSTR=2000000
run fig4_sfg_order            SSIM_PROFILE_INSTR=2000000 SSIM_EDS_INSTR=1200000
run fig5_delayed_update       SSIM_PROFILE_INSTR=2000000 SSIM_EDS_INSTR=1200000
run fig7_hls_comparison       SSIM_PROFILE_INSTR=2000000 SSIM_EDS_INSTR=1500000
run sec41_convergence         SSIM_PROFILE_INSTR=2000000
run fig8_phases               SSIM_EDS_INSTR=1200000
run table4_relative_accuracy  SSIM_PROFILE_INSTR=1500000 SSIM_EDS_INSTR=800000
run sec46_design_space        SSIM_PROFILE_INSTR=1500000 SSIM_EDS_INSTR=600000
run cheetah_sweep             SSIM_PROFILE_INSTR=1500000
run ablation_fifo_size        SSIM_QUICK=1 SSIM_PROFILE_INSTR=1500000 SSIM_EDS_INSTR=1000000 SSIM_WORKLOADS=gcc,parser,gzip,perlbmk
run ablation_dep_cap          SSIM_QUICK=1 SSIM_PROFILE_INSTR=1500000 SSIM_EDS_INSTR=1000000
run ablation_reduction_factor SSIM_QUICK=1 SSIM_PROFILE_INSTR=1500000 SSIM_EDS_INSTR=1000000
run ext_inorder               SSIM_QUICK=1 SSIM_PROFILE_INSTR=1500000 SSIM_EDS_INSTR=1000000
run synth_speed               SSIM_QUICK=1
run sim_speed                 SSIM_QUICK=1
# Experiment service: end-to-end smoke (loopback ephemeral port, small
# sweep checked bit-exact against direct library calls, metrics
# endpoint, clean drain-on-shutdown), its benchmark, then the fleet
# coordinator's smoke (3 backends under seeded fault injection) and
# benchmark. The benches write results/BENCH_serve.json and
# results/BENCH_fleet.json for perf_report to fold in.
serve() {
  b="ssim-serve-${*// /-}"
  echo "[$(date +%H:%M:%S)] running $b"
  env SSIM_METRICS="$SSIM_METRICS" SSIM_QUICK=1 \
    cargo run --release -q -p ssim-serve --bin ssim-serve -- "$@" > "results/$b.txt" 2>&1 \
    || { echo "serve $* FAILED (see results/$b.txt)"; exit 1; }
}
serve smoke
serve bench
serve fleet smoke
serve fleet bench
# Gateway + load story: open-loop loadgen through a gateway over
# fault-injecting backends with the zero-lost/zero-duplicated ack gate;
# writes results/BENCH_load.json for perf_report's "load" section.
./ci.sh load || exit 1
# The repository benchmark's self-tests: short sweep, study and serve
# runs checked against their pinned output digests.
./ci.sh perfbench || exit 1
# Surrogate-guided design-space planner vs exhaustive truth on the
# quick §4.6 space; writes results/BENCH_dse.json for perf_report.
run dse                       SSIM_QUICK=1
# Thread-scaling curve over the quick §4.6 grid (byte-identity across
# thread counts asserted; speedup gate enforced on multi-core hosts);
# writes results/BENCH_scaling.json for perf_report's "scaling" section.
run scaling                   SSIM_QUICK=1 SSIM_THREADS=2
run perf_report               SSIM_QUICK=1
# Deep tier (--deep): rerun scaling on the full grid with the
# efficiency-gated thread curve, extend the fleet to 8 backends, and
# refold — overwrites the quick curves in BENCH_parallel.json.
if [ "$DEEP" = 1 ]; then
  echo "[$(date +%H:%M:%S)] running deep bench tier (./ci.sh deep)"
  ./ci.sh deep || exit 1
fi
echo "[$(date +%H:%M:%S)] all experiments complete"
