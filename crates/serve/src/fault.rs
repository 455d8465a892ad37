//! Deterministic fault injection for the experiment server.
//!
//! Chaos tests are only worth having if they are reproducible, so the
//! server's fault layer is driven by a *plan* — a seeded description of
//! which faults to inject at what rate — instead of ambient
//! randomness. A plan is set programmatically ([`ServerConfig::fault`])
//! or through the environment:
//!
//! ```text
//! SSIM_FAULT_PLAN=drop:0.05,delay:20ms,reject:0.1@42
//! ```
//!
//! Directives (comma-separated, each optional):
//!
//! * `drop:P` — with probability `P`, close the connection without
//!   replying (the client sees a connection reset / EOF mid-stream);
//! * `reject:P` — with probability `P`, answer with a retryable
//!   backpressure rejection (`retry_after_ms` set) without running the
//!   request;
//! * `delay:Nms` — stall the connection, and only it, for `N`
//!   milliseconds before handling the request (plain `delay:N` is also
//!   `N` ms); its replies keep flowing meanwhile.
//!
//! The optional `@SEED` suffix seeds the plan's RNG (default 0). Two
//! servers given the same plan draw the same decision stream; the
//! per-request decisions are drawn from one shared seeded generator, so
//! a run is reproducible up to request arrival order — and a gateway
//! sweep's determinism guarantee never depends on *which* requests get
//! hit, only on every point eventually being answered somewhere.
//!
//! `shutdown` requests are exempt: a chaos run must still be able to
//! stop its servers deterministically.
//!
//! [`ServerConfig::fault`]: crate::server::ServerConfig

use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::Mutex;
use std::time::Duration;

static OBS_DROPPED: ssim_obs::Counter = ssim_obs::Counter::new("serve.fault.dropped");
static OBS_REJECTED: ssim_obs::Counter = ssim_obs::Counter::new("serve.fault.rejected");
static OBS_DELAYED: ssim_obs::Counter = ssim_obs::Counter::new("serve.fault.delayed");

/// A parsed fault plan (see the module docs for the grammar).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability of closing the connection without a reply.
    pub drop_p: f64,
    /// Probability of a synthetic backpressure rejection.
    pub reject_p: f64,
    /// Added per-request latency.
    pub delay: Duration,
    /// Seed of the decision stream.
    pub seed: u64,
}

impl FaultPlan {
    /// Parses the `drop:P,delay:Nms,reject:P@SEED` grammar.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending directive.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let text = text.trim();
        let (body, seed) = match text.rsplit_once('@') {
            None => (text, 0u64),
            Some((body, seed)) => (
                body,
                seed.trim()
                    .parse()
                    .map_err(|_| format!("bad fault-plan seed {seed:?}"))?,
            ),
        };
        let mut plan = FaultPlan {
            drop_p: 0.0,
            reject_p: 0.0,
            delay: Duration::ZERO,
            seed,
        };
        for directive in body.split(',').filter(|d| !d.trim().is_empty()) {
            let (key, value) = directive
                .split_once(':')
                .ok_or_else(|| format!("fault directive {directive:?} is not key:value"))?;
            let (key, value) = (key.trim(), value.trim());
            let prob = |v: &str| -> Result<f64, String> {
                v.parse::<f64>()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| format!("fault probability {v:?} not in [0, 1]"))
            };
            match key {
                "drop" => plan.drop_p = prob(value)?,
                "reject" => plan.reject_p = prob(value)?,
                "delay" => {
                    let ms = value
                        .strip_suffix("ms")
                        .unwrap_or(value)
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| format!("bad fault delay {value:?}"))?;
                    plan.delay = Duration::from_millis(ms);
                }
                other => return Err(format!("unknown fault directive {other:?}")),
            }
        }
        Ok(plan)
    }

    /// The plan from `SSIM_FAULT_PLAN`, if set and non-empty.
    ///
    /// A malformed plan is a hard error printed to stderr — silently
    /// running without the faults an operator asked for would make a
    /// chaos run look healthier than it is.
    pub fn from_env() -> Option<FaultPlan> {
        let text = std::env::var("SSIM_FAULT_PLAN").ok()?;
        if text.trim().is_empty() {
            return None;
        }
        match FaultPlan::parse(&text) {
            Ok(plan) => Some(plan),
            Err(e) => {
                eprintln!("ssim-serve: ignoring SSIM_FAULT_PLAN: {e}");
                None
            }
        }
    }

    /// Whether the plan injects anything at all.
    pub fn is_active(&self) -> bool {
        self.drop_p > 0.0 || self.reject_p > 0.0 || !self.delay.is_zero()
    }
}

/// One per-request decision drawn from the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Handle the request normally.
    None,
    /// Close the connection without replying.
    Drop,
    /// Send a retryable backpressure rejection with this hint.
    Reject {
        /// The `retry_after_ms` hint carried on the rejection.
        retry_after_ms: u64,
    },
}

/// The live injector: a plan plus its seeded decision stream.
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Mutex<SmallRng>,
}

impl FaultInjector {
    /// An injector at the start of the plan's decision stream.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = Mutex::new(SmallRng::seed_from_u64(plan.seed));
        FaultInjector { plan, rng }
    }

    /// Draws the next decision. The caller applies [`FaultPlan::delay`]
    /// itself via [`FaultInjector::delay`] — delay composes with either
    /// decision (a dropped connection after a stall is exactly how a
    /// dying peer behaves).
    pub fn decide(&self) -> FaultAction {
        let (d, r) = {
            let mut rng = self.rng.lock().unwrap();
            (rng.gen::<f64>(), rng.gen::<f64>())
        };
        if d < self.plan.drop_p {
            OBS_DROPPED.inc();
            return FaultAction::Drop;
        }
        if r < self.plan.reject_p {
            OBS_REJECTED.inc();
            // A synthetic rejection mimics a momentarily full queue; a
            // small fixed hint keeps obedient clients snappy.
            return FaultAction::Reject { retry_after_ms: 5 };
        }
        FaultAction::None
    }

    /// The plan's added latency, if any (callers stall that client's
    /// connection for it, and only that connection).
    pub fn delay(&self) -> Option<Duration> {
        if self.plan.delay.is_zero() {
            None
        } else {
            OBS_DELAYED.inc();
            Some(self.plan.delay)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let plan = FaultPlan::parse("drop:0.05,delay:20ms,reject:0.1@42").unwrap();
        assert_eq!(
            plan,
            FaultPlan {
                drop_p: 0.05,
                reject_p: 0.1,
                delay: Duration::from_millis(20),
                seed: 42,
            }
        );
        assert!(plan.is_active());
    }

    #[test]
    fn parses_partial_plans_and_defaults() {
        let plan = FaultPlan::parse("reject:1").unwrap();
        assert_eq!(plan.drop_p, 0.0);
        assert_eq!(plan.reject_p, 1.0);
        assert_eq!(plan.seed, 0);
        assert!(FaultPlan::parse("delay:7").unwrap().delay == Duration::from_millis(7));
        let empty = FaultPlan::parse("").unwrap();
        assert!(!empty.is_active());
    }

    #[test]
    fn rejects_malformed_plans() {
        for bad in [
            "drop:1.5",
            "drop:-0.1",
            "drop:x",
            "delay:20s",
            "teleport:0.5",
            "drop",
            "drop:0.1@notanumber",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn decision_stream_is_deterministic_per_seed() {
        let plan = FaultPlan::parse("drop:0.3,reject:0.3@7").unwrap();
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        let stream_a: Vec<_> = (0..200).map(|_| a.decide()).collect();
        let stream_b: Vec<_> = (0..200).map(|_| b.decide()).collect();
        assert_eq!(stream_a, stream_b);
        assert!(stream_a.contains(&FaultAction::Drop));
        assert!(stream_a
            .iter()
            .any(|f| matches!(f, FaultAction::Reject { .. })));
        assert!(stream_a.contains(&FaultAction::None));

        let c = FaultInjector::new(FaultPlan::parse("drop:0.3,reject:0.3@8").unwrap());
        let stream_c: Vec<_> = (0..200).map(|_| c.decide()).collect();
        assert_ne!(stream_a, stream_c, "different seeds should diverge");
    }

    #[test]
    fn rates_are_roughly_honored() {
        let inj = FaultInjector::new(FaultPlan::parse("drop:0.2,reject:0.2@1").unwrap());
        let n = 10_000;
        let mut drops = 0;
        let mut rejects = 0;
        for _ in 0..n {
            match inj.decide() {
                FaultAction::Drop => drops += 1,
                FaultAction::Reject { retry_after_ms } => {
                    assert!(retry_after_ms > 0);
                    rejects += 1;
                }
                FaultAction::None => {}
            }
        }
        let drop_rate = drops as f64 / n as f64;
        // Rejects only fire when the drop draw passes: 0.8 * 0.2.
        let reject_rate = rejects as f64 / n as f64;
        assert!((drop_rate - 0.2).abs() < 0.02, "drop rate {drop_rate}");
        assert!(
            (reject_rate - 0.16).abs() < 0.02,
            "reject rate {reject_rate}"
        );
    }
}
