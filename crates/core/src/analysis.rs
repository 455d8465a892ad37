//! Trace validation: does a synthetic trace actually carry its
//! profile's statistics?
//!
//! Statistical simulation is only as good as the fidelity of the
//! synthetic trace. [`validate_trace`] compares a generated trace
//! against the profile it came from — instruction mix, branch
//! behaviour, locality rates and dependency-distance moments — and
//! reports the divergences, so regressions in the generator surface as
//! numbers rather than mysterious IPC drift.
//!
//! # Examples
//!
//! ```no_run
//! use ssim_core::{profile, validate_trace, ProfileConfig};
//! use ssim_uarch::MachineConfig;
//!
//! let machine = MachineConfig::baseline();
//! let program = ssim_workloads::by_name("gzip").unwrap().program();
//! let p = profile(&program, &ProfileConfig::new(&machine));
//! let trace = p.generate(100, 1);
//! let report = validate_trace(&p, &trace);
//! assert!(report.max_divergence() < 0.05, "{report}");
//! ```

use crate::sfg::StatisticalProfile;
use crate::synth::{SyntheticOutcome, SyntheticTrace};
use ssim_isa::InstrClass;
use std::fmt;

/// Divergences between a synthetic trace and its source profile.
///
/// All fields are absolute differences of probabilities/fractions in
/// `[0, 1]`, except [`TraceValidation::dep_mean_rel`], which is the
/// relative difference of mean dependency distances.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceValidation {
    /// Total-variation distance between instruction-class mixes.
    pub mix_tv: f64,
    /// |taken fraction (trace) − taken fraction (profile)|.
    pub taken_delta: f64,
    /// |misprediction fraction (trace) − (profile)|.
    pub mispredict_delta: f64,
    /// |L1D load miss fraction (trace) − (profile)|.
    pub l1d_delta: f64,
    /// |L1I miss fraction (trace) − (profile)|.
    pub l1i_delta: f64,
    /// Relative difference of mean RAW dependency distances.
    pub dep_mean_rel: f64,
}

impl TraceValidation {
    /// The largest divergence across all dimensions.
    pub fn max_divergence(&self) -> f64 {
        [
            self.mix_tv,
            self.taken_delta,
            self.mispredict_delta,
            self.l1d_delta,
            self.l1i_delta,
            self.dep_mean_rel,
        ]
        .into_iter()
        .fold(0.0, f64::max)
    }
}

impl fmt::Display for TraceValidation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mix TV {:.4}, taken Δ {:.4}, mispredict Δ {:.4}, L1D Δ {:.4}, \
             L1I Δ {:.4}, dep-mean rel Δ {:.4}",
            self.mix_tv,
            self.taken_delta,
            self.mispredict_delta,
            self.l1d_delta,
            self.l1i_delta,
            self.dep_mean_rel
        )
    }
}

/// Profile-side aggregate statistics (occurrence-weighted).
#[derive(Debug, Default)]
struct Aggregate {
    mix: [f64; 12],
    total: f64,
    taken: f64,
    branches: f64,
    mispredicts: f64,
    l1d_miss: f64,
    loads: f64,
    l1i_miss: f64,
    dep_sum: f64,
    dep_n: f64,
}

fn profile_aggregate(p: &StatisticalProfile) -> Aggregate {
    let mut a = Aggregate::default();
    for (_, stats) in p.contexts() {
        let occ = stats.occurrence as f64;
        for slot in &stats.slots {
            a.mix[slot.class.index()] += occ;
            a.total += occ;
            a.l1i_miss += occ * slot.icache.l1.probability();
            if let Some(d) = &slot.dcache {
                a.loads += occ;
                a.l1d_miss += occ * d.l1.probability();
            }
            for dep in &slot.dep {
                // Value 0 encodes "no dependency": the trace-side mean
                // covers realised dependencies only, so exclude the
                // zero mass here too.
                let real = dep.total().saturating_sub(dep.count(0));
                if real > 0 {
                    let sum: f64 = dep
                        .iter()
                        .filter(|(v, _)| *v > 0)
                        .map(|(v, c)| f64::from(v) * c as f64)
                        .sum();
                    let weight = occ * real as f64 / dep.total() as f64;
                    a.dep_sum += weight * (sum / real as f64);
                    a.dep_n += weight;
                }
            }
        }
        if let Some(b) = &stats.branch {
            let total = b.total() as f64;
            if total > 0.0 {
                a.branches += occ;
                a.taken += occ * b.taken.probability();
                a.mispredicts += occ * (b.mispredict as f64 / total);
            }
        }
    }
    a
}

/// Compares a synthetic trace against the profile that generated it.
///
/// Reports how far the trace's instruction mix, branch behaviour,
/// locality rates and dependency-distance moments are from the profile's.
pub fn validate_trace(profile: &StatisticalProfile, trace: &SyntheticTrace) -> TraceValidation {
    let agg = profile_aggregate(profile);
    let n = trace.len().max(1) as f64;

    let mut mix = [0.0f64; 12];
    let (mut taken, mut branches, mut mispredicts) = (0.0, 0.0, 0.0);
    let (mut l1d, mut loads, mut l1i) = (0.0, 0.0, 0.0);
    let (mut dep_sum, mut dep_n) = (0.0, 0.0);
    for i in trace.instrs() {
        mix[i.class.index()] += 1.0;
        if i.l1i_miss {
            l1i += 1.0;
        }
        if let Some(d) = i.dmem {
            loads += 1.0;
            if d.l1_miss {
                l1d += 1.0;
            }
        }
        if let Some(b) = i.branch {
            branches += 1.0;
            if b.taken {
                taken += 1.0;
            }
            if b.outcome == SyntheticOutcome::Mispredict {
                mispredicts += 1.0;
            }
        }
        for d in i.dep.iter().flatten() {
            dep_sum += f64::from(*d);
            dep_n += 1.0;
        }
    }

    let mix_tv = if agg.total > 0.0 {
        0.5 * InstrClass::ALL
            .iter()
            .map(|c| (mix[c.index()] / n - agg.mix[c.index()] / agg.total).abs())
            .sum::<f64>()
    } else {
        0.0
    };
    let frac = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let profile_dep_mean = frac(agg.dep_sum, agg.dep_n);
    let trace_dep_mean = frac(dep_sum, dep_n);
    TraceValidation {
        mix_tv,
        taken_delta: (frac(taken, branches) - frac(agg.taken, agg.branches)).abs(),
        mispredict_delta: (frac(mispredicts, branches) - frac(agg.mispredicts, agg.branches)).abs(),
        l1d_delta: (frac(l1d, loads) - frac(agg.l1d_miss, agg.loads)).abs(),
        l1i_delta: (l1i / n - frac(agg.l1i_miss, agg.total)).abs(),
        dep_mean_rel: if profile_dep_mean > 0.0 {
            (trace_dep_mean - profile_dep_mean).abs() / profile_dep_mean
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{profile, ProfileConfig};
    use ssim_uarch::MachineConfig;

    fn profile_of(name: &str) -> StatisticalProfile {
        let program = ssim_workloads::by_name(name)
            .expect("known workload")
            .program();
        profile(
            &program,
            &ProfileConfig::new(&MachineConfig::baseline())
                .skip(4_000_000)
                .instructions(600_000),
        )
    }

    #[test]
    fn generated_traces_match_their_profiles() {
        for name in ["gzip", "twolf", "perlbmk"] {
            let p = profile_of(name);
            let trace = p.generate(10, 1);
            let v = validate_trace(&p, &trace);
            assert!(
                v.max_divergence() < 0.08,
                "{name}: trace diverges from its profile: {v}"
            );
        }
    }

    #[test]
    fn foreign_traces_are_flagged() {
        let gzip = profile_of("gzip");
        let eon = profile_of("eon");
        // An eon trace (fp-heavy) badly misrepresents gzip's mix.
        let v = validate_trace(&gzip, &eon.generate(10, 1));
        assert!(v.mix_tv > 0.15, "foreign trace should diverge, got {v}");
    }

    #[test]
    fn empty_trace_yields_finite_report() {
        let p = profile_of("crafty");
        let v = validate_trace(&p, &SyntheticTrace::default());
        assert!(v.max_divergence().is_finite());
    }
}
