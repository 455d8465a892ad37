//! Shared helpers for integration tests across the workspace.
//!
//! Timing discipline: tests never sleep for a fixed interval and hope —
//! they poll an observable condition with [`wait_until`] under one
//! configurable budget. `SSIM_TEST_TIMEOUT_MS` scales every deadline in
//! the workspace at once (slow CI runners raise it; the default is
//! generous on purpose because it is a *ceiling*, not a wait — polling
//! returns the moment the condition holds). The
//! `flake_guard` test in `crates/serve/tests` enforces the discipline
//! mechanically over every test source in the workspace.
//!
//! Consumers pull this file in by path, so there is exactly one copy:
//!
//! ```ignore
//! #[path = "../../../tests/util/mod.rs"]
//! mod util;
//! ```

// Each test binary compiles its own copy of this module and uses a
// subset of it.
#![allow(dead_code)]

use std::time::{Duration, Instant};

/// The suite-wide timeout budget: `SSIM_TEST_TIMEOUT_MS`, default 30 s.
pub fn timeout_ms() -> u64 {
    std::env::var("SSIM_TEST_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30_000)
}

/// Polls `cond` every 2 ms until it holds, panicking with `what` after
/// [`timeout_ms`] elapses. Returns as soon as the condition is true, so
/// a raised timeout never slows a healthy run.
pub fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_millis(timeout_ms());
    while !cond() {
        assert!(
            Instant::now() < deadline,
            "timed out after {} ms waiting for: {what}",
            timeout_ms()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}
