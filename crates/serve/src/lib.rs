//! `ssim-serve`: a dependency-free experiment service for the
//! statistical-simulation pipeline.
//!
//! Long design-space studies repeat the same expensive steps — profile
//! a workload, lower the profile into a compiled sampler, simulate
//! thousands of `(machine, R, seed)` points. This crate puts those
//! steps behind a small multi-threaded TCP service so several clients
//! (sweep drivers, notebooks, CI) share one warm artifact store instead
//! of each re-profiling from scratch:
//!
//! * **Protocol** ([`proto`]): newline-delimited JSON, hand-rolled on
//!   `std` only ([`json`]). Requests carry a correlation `id` and an
//!   optional `deadline_ms`; responses may arrive out of submission
//!   order. Kinds: `profile`, `synth`, `simulate`, `sweep`, `assemble`,
//!   `submit-program`, `metrics`, `shutdown` — plus `sweep-stream`
//!   (per-point NDJSON progress frames, digest-verified client merge),
//!   and the journal pair: an envelope-level `"job"` idempotency key
//!   and `job-result` polls.
//! * **Program submission**: untrusted `.asm` text is assembled under
//!   parse-size/memory ceilings (`ssim-asm` sandbox limits), proven
//!   fault-free by a fuel-bounded functional pre-run, profiled, and
//!   registered under a content-addressed `program:<hash>` name that
//!   later `synth`/`simulate`/`sweep` requests resolve like any
//!   workload. Every rejection is a structured error, visible as the
//!   `serve.program.rejected` counter.
//! * **Server** ([`server`]): on the serving core it shares with the
//!   gateway (an acceptor, at most four non-blocking I/O loops that own
//!   every socket, a worker pool sized like `ssim-par`'s; no thread per
//!   connection): bounded job queue with explicit backpressure (reject +
//!   `retry_after_ms`, never block or drop), per-job deadlines,
//!   cancellation of jobs whose client vanished, and graceful shutdown
//!   that drains all accepted work before acknowledging.
//! * **Artifacts** ([`artifacts`]): profiles resolved through the
//!   on-disk profile cache, `(profile, R)` compiled once and replayed
//!   per seed, and an in-memory result cache keyed by
//!   `(profile hash, machine fingerprint, R, seed)`.
//! * **Client** ([`client`]): blocking client with pipelining and a
//!   backpressure-aware retry helper.
//! * **Fault injection** ([`fault`]): a seeded, deterministic
//!   `SSIM_FAULT_PLAN` layer (drops, delays, backpressure rejects) so
//!   chaos tests are reproducible.
//! * **Journal** ([`journal`]): crash-safe append-only job log
//!   (checksummed NDJSON, fsync before ack, torn-tail truncation on
//!   replay) — a SIGKILLed server resumes incomplete jobs on restart
//!   and never re-acks lost work.
//! * **Gateway** ([`gateway`]): one address in front of several
//!   backends. Single requests round-robin with failover, `sweep`s shard
//!   point by point across every backend through the same forwarding
//!   path, and one table of dead marks decides for both which backends
//!   to skip. Sweep results merge by design-point index, so a sharded
//!   sweep is byte-identical to a single-backend one.
//!
//! Results served over the wire are **byte-identical** to direct
//! library calls: traces come from the compiled sampler (itself
//! bit-equal to the reference interpreter), and `f64` values survive
//! the wire because Rust's shortest-round-trip float formatting parses
//! back to the same bits.

pub mod artifacts;
pub mod client;
pub mod fault;
mod frontend;
pub mod gateway;
pub mod journal;
pub mod json;
pub mod proto;
pub mod server;

pub use artifacts::{program_hash, program_name};
pub use client::{Client, Response, StreamedSweep};
pub use fault::FaultPlan;
pub use gateway::{Gateway, GatewayConfig};
pub use journal::{Journal, Record};
pub use proto::{sweep_digest, MachineSpec, PointResult, ProfileParams, Request};
pub use server::{Server, ServerConfig};
