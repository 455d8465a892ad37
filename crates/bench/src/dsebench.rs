//! Surrogate-guided design-space exploration measurement behind the
//! `dse` binary and its `results/BENCH_dse.json`.
//!
//! Two phases, both asserted against the acceptance criteria
//! in-measurement so the recorded numbers can never come from a
//! planner that silently degraded:
//!
//! 1. **Real space** — the §4.6 grid (RUU × LSQ × decode × issue ×
//!    commit, `lsq ≤ ruu`) on the fused statistical engine. The
//!    exhaustive sweep is the ground truth; the adaptive planner gets a
//!    25% point budget and must reproduce the exhaustive Pareto
//!    frontier and every per-stratum mean IPC within 2%, with a
//!    byte-identical report on a re-run. The stratum gate reads the
//!    planner's **model-assisted** estimates
//!    ([`ssim_dse::StratumReport::model_ipc`]): at a 25% budget a
//!    design-based stratum mean over ~8 samples carries a ~10% standard
//!    error whatever the planner does — only the
//!    surrogate-plus-residual-correction estimator (and the sample
//!    floor and residual-Neyman allocation behind it) makes 2%
//!    achievable. The design-based error is recorded alongside.
//! 2. **Synthetic scale** — the ~10⁶-point closed-form space (reduced
//!    radix in quick mode), where the planner simulates ≤ 5% of the
//!    points and its declared per-stratum error bars are checked
//!    against the known true stratum means.
//!
//! Quick mode shrinks the §4.6 space to 296 points (widths {2,8}) —
//! too few for the 25%/2% statistics to hold, so the smoke run scales
//! the dials instead of silently weakening the claim: 40% budget and a
//! 4% stratum bound, same zero-tolerance determinism and a 2% Pareto
//! gate. The full run is the acceptance run.

use ssim::prelude::*;
use ssim_dse::{
    run_adaptive, run_exhaustive, splitmix64, Axis, EarlyStop, Evaluator, FeatureMap, PlanConfig,
    PlanReport, Response, Space, SurrogateConfig, SyntheticEvaluator,
};
use std::sync::Arc;
use std::time::Instant;

/// The §4.6 design space as a [`Space`]: same axes and `lsq ≤ ruu`
/// constraint as the exhaustive `sec46_design_space` grid, with a
/// resource-weighted cost proxy as the Pareto x-axis.
pub fn sec46_space(quick: bool) -> Space {
    let widths: &[u64] = if quick { &[2, 8] } else { &[2, 4, 8] };
    let axes = vec![
        Axis::new("ruu", &[8, 16, 32, 48, 64, 96, 128]),
        Axis::new("lsq", &[4, 8, 16, 24, 32, 48, 64]),
        Axis::new("decode", widths),
        Axis::new("issue", widths),
        Axis::new("commit", widths),
    ];
    let constraint = Some(Arc::new(|c: &[u64]| c[1] <= c[0]) as ssim_dse::Constraint);
    let cost = Arc::new(|c: &[u64]| (c[0] + 2 * c[1] + 12 * (c[2] + c[3] + c[4])) as f64);
    Space::new(axes, constraint, cost)
}

/// Fused-engine evaluator over [`sec46_space`] points: per-point seed
/// early stop (§4.1 CoV rule), seeds keyed by `(point id, run index)`
/// so the response is a pure function of the point — the planner's
/// purity requirement.
struct FusedEvaluator {
    sampler: Arc<CompiledSampler>,
    base: MachineConfig,
    early: EarlyStop,
}

impl Evaluator for FusedEvaluator {
    fn eval(&self, space: &Space, id: u64) -> Response {
        let c = space.coords(id);
        let mut cfg = self.base.clone();
        cfg.ruu_size = c[0] as usize;
        cfg.lsq_size = c[1] as usize;
        cfg.decode_width = c[2] as usize;
        cfg.issue_width = c[3] as usize;
        cfg.commit_width = c[4] as usize;
        let mut mpki_sum = 0.0;
        let (ipc, sims) = self.early.run(|run| {
            let seed = splitmix64(id ^ ((u64::from(run) + 1) << 40));
            let res = crate::with_engine(|e| e.simulate_fused(&self.sampler, seed, &cfg));
            mpki_sum += res.mpki();
            res.ipc()
        });
        Response {
            ipc,
            mpki: mpki_sum / f64::from(sims),
            sims,
        }
    }
}

/// Synthetic-scale phase numbers.
#[derive(Debug, Clone)]
pub struct SynthDse {
    /// Valid points in the synthetic space.
    pub points: usize,
    /// Strata the planner worked with.
    pub strata: usize,
    /// Points simulated.
    pub simulated: u64,
    /// `simulated / points`.
    pub fraction: f64,
    /// Wall-clock of the adaptive run.
    pub elapsed_s: f64,
    /// Size of the reported frontier.
    pub pareto_len: usize,
    /// Worst relative error of a stratum mean vs the closed-form truth
    /// (percent).
    pub max_stratum_err_pct: f64,
    /// Share of strata whose true mean lies within the declared 3σ
    /// error bar.
    pub within_3sigma_frac: f64,
}

/// Everything one `measure_dse` run produced.
#[derive(Debug, Clone)]
pub struct DseBench {
    /// Workload the real-space phase ran on.
    pub workload: String,
    /// Valid points in the §4.6 space.
    pub space_points: usize,
    /// Strata the planner worked with.
    pub strata: usize,
    /// Point budget handed to the planner.
    pub budget: usize,
    /// `budget / space_points`.
    pub sim_fraction: f64,
    /// Wall-clock of the exhaustive sweep.
    pub exhaustive_s: f64,
    /// Wall-clock of the adaptive run.
    pub adaptive_s: f64,
    /// Simulator runs (seeds) the exhaustive sweep consumed.
    pub exhaustive_sims: u64,
    /// Simulator runs the adaptive planner consumed.
    pub adaptive_sims: u64,
    /// Worst frontier-envelope shortfall of the adaptive Pareto set vs
    /// the exhaustive one (percent; 0 = frontier fully reproduced).
    pub pareto_gap_pct: f64,
    /// Worst relative error of an adaptive **model-assisted** stratum
    /// estimate vs the exhaustive stratum mean (percent) — the gated
    /// quantity.
    pub stratum_err_pct: f64,
    /// Worst relative error of the design-based (sample-mean) stratum
    /// estimate (percent) — recorded for contrast, not gated.
    pub stratum_direct_err_pct: f64,
    /// Surrogate RMSE on its training set (IPC units).
    pub surrogate_train_rmse: f64,
    /// Prequential RMSE of the surrogate's pre-simulation predictions.
    pub surrogate_holdout_rmse: f64,
    /// FNV-1a digest of the adaptive report (byte-identical on re-run;
    /// asserted in-measurement).
    pub digest: u64,
    /// The synthetic-scale phase.
    pub synth: SynthDse,
}

/// Worst relative IPC shortfall of the adaptive frontier against the
/// exhaustive frontier envelope: for every exhaustive frontier point,
/// the best adaptive frontier IPC at no greater cost (percent).
fn pareto_gap_pct(exhaustive: &PlanReport, adaptive: &PlanReport) -> f64 {
    let mut worst: f64 = 0.0;
    for pe in &exhaustive.pareto {
        let best = adaptive
            .pareto
            .iter()
            .filter(|pa| pa.cost <= pe.cost)
            .map(|pa| pa.ipc)
            .fold(f64::NEG_INFINITY, f64::max);
        let gap = if best.is_finite() {
            ((pe.ipc - best) / pe.ipc).max(0.0)
        } else {
            1.0 // nothing at or under this cost: total miss
        };
        worst = worst.max(gap);
    }
    worst * 100.0
}

/// Worst relative error of the adaptive per-stratum IPC estimates
/// against a reference report's stratum means (percent): model-assisted
/// first (the gated estimator), design-based second.
fn stratum_err_pct(reference: &PlanReport, adaptive: &PlanReport) -> (f64, f64) {
    assert_eq!(reference.strata.len(), adaptive.strata.len());
    let mut model: f64 = 0.0;
    let mut direct: f64 = 0.0;
    for (r, a) in reference.strata.iter().zip(&adaptive.strata) {
        assert_eq!(r.id, a.id);
        if r.mean_ipc > 0.0 {
            model = model.max((a.model_ipc - r.mean_ipc).abs() / r.mean_ipc);
            if a.simulated > 0 {
                direct = direct.max((a.mean_ipc - r.mean_ipc).abs() / r.mean_ipc);
            }
        }
    }
    (model * 100.0, direct * 100.0)
}

/// Runs both phases and asserts the acceptance gates. See the module
/// docs for what each phase claims.
pub fn measure_dse() -> DseBench {
    let quick = crate::quick();
    let budget_env = crate::Budget::from_env();
    let w = *crate::workloads().first().expect("non-empty workload set");
    let profile = crate::profiled(&MachineConfig::baseline(), w, &budget_env);
    // Short traces, same target the sec46 sweep uses: thousands of
    // simulations against one shared compiled sampler.
    let r = (profile.instructions() / 40_000).max(1);
    let eval = FusedEvaluator {
        sampler: crate::sampler_cached(&profile, r),
        base: MachineConfig::baseline(),
        early: EarlyStop::default(),
    };

    // ---- real §4.6 space: exhaustive truth vs 25% planner ------------
    // Quick mode scales the dials (see the module docs): the shrunken
    // space needs a 40% budget and tolerates 4% stratum error.
    let space = sec46_space(quick);
    let (budget, pareto_frac, stratum_floor, fraction_bound, stratum_bound) = if quick {
        (space.points() * 2 / 5, 0.7, 2, 0.40, 4.0)
    } else {
        (space.points() / 4, 0.5, 4, 0.25, 2.0)
    };
    let cfg = PlanConfig {
        seed: 0xD5E46,
        budget,
        pareto_frac,
        pareto_band: 0.05,
        stratum_floor,
        surrogate: SurrogateConfig {
            gbm_rounds: 150,
            gbm_learning_rate: 0.1,
            features: FeatureMap::Bottleneck,
            ..SurrogateConfig::default()
        },
        ..PlanConfig::default()
    };

    let t = Instant::now();
    let exhaustive = run_exhaustive(&space, &cfg, &eval);
    let exhaustive_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let adaptive = run_adaptive(&space, &cfg, &eval);
    let adaptive_s = t.elapsed().as_secs_f64();
    let rerun = run_adaptive(&space, &cfg, &eval);
    assert_eq!(
        adaptive.digest(),
        rerun.digest(),
        "adaptive plan not byte-deterministic on re-run"
    );

    let pareto_gap = pareto_gap_pct(&exhaustive, &adaptive);
    let (stratum_err, stratum_direct_err) = stratum_err_pct(&exhaustive, &adaptive);
    let sim_fraction = adaptive.simulated as f64 / space.points() as f64;
    assert!(
        sim_fraction <= fraction_bound + 1e-9,
        "planner overspent: {sim_fraction:.3} of the space (bound {fraction_bound})"
    );
    assert!(
        pareto_gap <= 2.0,
        "Pareto frontier gap {pareto_gap:.2}% exceeds the 2% acceptance bound"
    );
    assert!(
        stratum_err <= stratum_bound,
        "stratum mean IPC error {stratum_err:.2}% exceeds the {stratum_bound}% bound"
    );

    // ---- synthetic scale: ≤5% of ~10⁶ points -------------------------
    let synth_space = if quick {
        ssim_dse::big_space(6) // 6⁴·16 = 20,736 points
    } else {
        ssim_dse::million_point_space()
    };
    let synth_eval = SyntheticEvaluator::new(0x5ca1e);
    let synth_cfg = PlanConfig {
        seed: 0x5ca1e,
        budget: synth_space.points() / 20, // the 5% acceptance budget
        ..PlanConfig::default()
    };
    let t = Instant::now();
    let synth_report = run_adaptive(&synth_space, &synth_cfg, &synth_eval);
    let synth_elapsed = t.elapsed().as_secs_f64();
    let synth_fraction = synth_report.simulated as f64 / synth_space.points() as f64;
    assert!(
        synth_fraction <= 0.05 + 1e-9,
        "synthetic phase overspent: {synth_fraction:.4}"
    );

    // Calibration against the closed-form truth: true per-stratum means
    // are exact sums over the full space — affordable because the
    // surface costs nanoseconds, which is the whole point of this
    // phase.
    let ids = synth_space.valid_ids();
    let strata = synth_space.stratify(synth_cfg.bins_per_axis);
    let mut max_err: f64 = 0.0;
    let mut within = 0usize;
    let mut bars = 0usize;
    for (st, rep) in strata.iter().zip(&synth_report.strata) {
        assert_eq!(st.id, rep.id);
        let true_mean = st
            .members
            .iter()
            .map(|&pos| synth_eval.true_ipc(&synth_space, ids[pos as usize]))
            .sum::<f64>()
            / st.members.len() as f64;
        if rep.simulated > 0 && true_mean > 0.0 {
            max_err = max_err.max((rep.mean_ipc - true_mean).abs() / true_mean);
        }
        if rep.simulated >= 2 {
            bars += 1;
            if (rep.mean_ipc - true_mean).abs() <= 3.0 * rep.stderr_ipc {
                within += 1;
            }
        }
    }
    let within_3sigma = if bars > 0 {
        within as f64 / bars as f64
    } else {
        0.0
    };

    DseBench {
        workload: w.name().to_string(),
        space_points: space.points(),
        strata: adaptive.strata.len(),
        budget,
        sim_fraction,
        exhaustive_s,
        adaptive_s,
        exhaustive_sims: exhaustive.sims,
        adaptive_sims: adaptive.sims,
        pareto_gap_pct: pareto_gap,
        stratum_err_pct: stratum_err,
        stratum_direct_err_pct: stratum_direct_err,
        surrogate_train_rmse: adaptive.surrogate_train_rmse.unwrap_or(0.0),
        surrogate_holdout_rmse: adaptive.surrogate_holdout_rmse.unwrap_or(0.0),
        digest: adaptive.digest(),
        synth: SynthDse {
            points: synth_space.points(),
            strata: synth_report.strata.len(),
            simulated: synth_report.simulated,
            fraction: synth_fraction,
            elapsed_s: synth_elapsed,
            pareto_len: synth_report.pareto.len(),
            max_stratum_err_pct: max_err * 100.0,
            within_3sigma_frac: within_3sigma,
        },
    }
}

impl DseBench {
    /// The whole of `results/BENCH_dse.json`.
    pub fn json(&self) -> String {
        format!(
            "{{{}, \"workload\": \"{}\", \"space_points\": {}, \"strata\": {}, \
             \"budget\": {}, \"sim_fraction\": {:.4}, \
             \"exhaustive_s\": {:.4}, \"adaptive_s\": {:.4}, \
             \"exhaustive_sims\": {}, \"adaptive_sims\": {}, \
             \"pareto_gap_pct\": {:.4}, \"stratum_err_pct\": {:.4}, \
             \"stratum_direct_err_pct\": {:.4}, \
             \"surrogate_train_rmse\": {:.6}, \"surrogate_holdout_rmse\": {:.6}, \
             \"digest\": \"{:016x}\", \
             \"synth\": {{\"points\": {}, \"strata\": {}, \"simulated\": {}, \
             \"fraction\": {:.4}, \"elapsed_s\": {:.4}, \"pareto_len\": {}, \
             \"max_stratum_err_pct\": {:.4}, \"within_3sigma_frac\": {:.4}}}}}",
            crate::host_header_json(),
            self.workload,
            self.space_points,
            self.strata,
            self.budget,
            self.sim_fraction,
            self.exhaustive_s,
            self.adaptive_s,
            self.exhaustive_sims,
            self.adaptive_sims,
            self.pareto_gap_pct,
            self.stratum_err_pct,
            self.stratum_direct_err_pct,
            self.surrogate_train_rmse,
            self.surrogate_holdout_rmse,
            self.digest,
            self.synth.points,
            self.synth.strata,
            self.synth.simulated,
            self.synth.fraction,
            self.synth.elapsed_s,
            self.synth.pareto_len,
            self.synth.max_stratum_err_pct,
            self.synth.within_3sigma_frac,
        )
    }

    /// Human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "real space ({}, {} pts): planner spent {:.0}% ({} sims vs {} exhaustive), \
             Pareto gap {:.2}%, stratum err {:.2}% model-assisted ({:.2}% design-based), \
             {:.1}x wall-clock\n\
             synthetic ({} pts): {:.1}% simulated in {:.1}s, {} frontier pts, \
             stratum err {:.2}%, {:.0}% of bars calibrated",
            self.workload,
            self.space_points,
            self.sim_fraction * 100.0,
            self.adaptive_sims,
            self.exhaustive_sims,
            self.pareto_gap_pct,
            self.stratum_err_pct,
            self.stratum_direct_err_pct,
            self.exhaustive_s / self.adaptive_s.max(1e-9),
            self.synth.points,
            self.synth.fraction * 100.0,
            self.synth.elapsed_s,
            self.synth.pareto_len,
            self.synth.max_stratum_err_pct,
            self.synth.within_3sigma_frac * 100.0,
        )
    }
}
