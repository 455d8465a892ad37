//! Server-side artifact management: profiles, compiled samplers, and
//! the in-memory result cache.
//!
//! The paper's economics — profile once, explore thousands of design
//! points cheaply — only pay off if the expensive artifacts are built
//! once and shared. This module keeps three layers warm:
//!
//! 1. **Profiles**, resolved through the on-disk profile cache
//!    (`ssim_bench::profile_cached`), so a server restart or a bench
//!    binary running beside the server reuses the same `.ssimprf`
//!    entries. Concurrent requests for the same profile deduplicate on
//!    a per-key `OnceLock`: one worker profiles, the rest block on the
//!    cell instead of repeating the multi-million-instruction pass.
//! 2. **Compiled samplers**: a `(profile, R)` pair is lowered once
//!    (`StatisticalProfile::compile`) and replayed per seed.
//! 3. **Simulation results**, keyed by `(profile content hash,
//!    MachineConfig fingerprint, R, seed)` with FIFO eviction — a
//!    sweep re-submitted with overlapping points answers the overlap
//!    from memory.
//!
//! All three layers are sharded (`ssim_par::ShardedCache` for the
//! build-once maps, an N-way sharded FIFO for results), so the worker
//! pool's hot path never funnels through one global lock: a shard lock
//! is held only for map operations, and expensive builds (profiling,
//! sampler lowering) run outside every lock with per-key dedup.

use crate::proto::{PointResult, ProfileParams};
use ssim::isa::Program;
use ssim::prelude::*;
use ssim_par::ShardedCache;
use std::collections::{HashMap, VecDeque};
use std::hash::Hasher;
use std::sync::{Arc, Mutex};

static OBS_PROFILE_BUILDS: ssim_obs::Counter = ssim_obs::Counter::new("serve.artifacts.profiles");
static OBS_SAMPLER_BUILDS: ssim_obs::Counter = ssim_obs::Counter::new("serve.artifacts.samplers");
static OBS_RESULT_HITS: ssim_obs::Counter = ssim_obs::Counter::new("serve.result_cache.hits");
static OBS_RESULT_MISSES: ssim_obs::Counter = ssim_obs::Counter::new("serve.result_cache.misses");
static OBS_PROGRAMS: ssim_obs::Counter = ssim_obs::Counter::new("serve.artifacts.programs");

/// Content hash of a program image: the FxHash of its canonical `.asm`
/// emission, which spells out the name, memory size, every data chunk
/// and every instruction — two programs hash equal iff they are the
/// same image. Registry names (`program:<hash>`) and the on-disk
/// profile-cache keys for submitted programs both derive from this.
pub fn program_hash(p: &Program) -> u64 {
    let mut h = ssim::core::FxHasher::default();
    h.write(p.to_asm().as_bytes());
    h.finish()
}

/// The registry name a program resolves under (`program:<hex-hash>`).
pub fn program_name(hash: u64) -> String {
    format!("program:{hash:016x}")
}

/// A resolved profile plus its per-`R` compiled samplers.
pub struct ProfileArtifact {
    /// The statistical profile.
    pub profile: Arc<StatisticalProfile>,
    /// Content hash of the serialized profile (result-cache key part).
    pub hash: u64,
    samplers: ShardedCache<u64, Arc<CompiledSampler>>,
}

impl ProfileArtifact {
    /// The compiled sampler for reduction factor `r`, lowered exactly
    /// once per `r` — concurrent first requests for the same `r` dedup
    /// on the key's cell, and the lowering runs outside every lock (the
    /// old map held its lock across `compile`, serialising sweeps that
    /// mixed reduction factors).
    pub fn sampler(&self, r: u64) -> Arc<CompiledSampler> {
        self.samplers.get_or_build(r, || {
            OBS_SAMPLER_BUILDS.inc();
            Arc::new(self.profile.compile(r))
        })
    }
}

/// The fingerprint of a fully resolved machine configuration.
///
/// The `Debug` rendering spells out every field (the same idiom the
/// on-disk profile cache keys on), so two configurations hash equal
/// iff they simulate identically.
pub fn machine_fingerprint(cfg: &MachineConfig) -> u64 {
    let mut h = ssim::core::FxHasher::default();
    h.write(format!("{cfg:?}").as_bytes());
    h.finish()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ResultKey {
    profile: u64,
    machine: u64,
    r: u64,
    seed: u64,
}

/// A bounded map with FIFO eviction (insertion order) — one shard of
/// the sharded result cache.
struct ResultCache {
    capacity: usize,
    map: HashMap<ResultKey, PointResult>,
    order: VecDeque<ResultKey>,
}

impl ResultCache {
    fn with_capacity(capacity: usize) -> Self {
        ResultCache {
            capacity,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn get(&self, key: &ResultKey) -> Option<PointResult> {
        self.map.get(key).copied()
    }

    fn insert(&mut self, key: ResultKey, value: PointResult) {
        if self.capacity == 0 || self.map.contains_key(&key) {
            return;
        }
        while self.map.len() >= self.capacity {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&old);
        }
        self.map.insert(key, value);
        self.order.push_back(key);
    }
}

/// Shard count for the result cache: a worker pool saturating 16 cores
/// lands on a given shard lock ~1/16th of the time.
const RESULT_SHARDS: usize = 16;

/// The result cache sharded by key hash: each shard is an independent
/// FIFO holding `capacity / RESULT_SHARDS` points, so concurrent sweep
/// workers recording results stripe across `RESULT_SHARDS` locks
/// instead of convoying on one.
struct ShardedResults {
    shards: Box<[Mutex<ResultCache>]>,
}

impl ShardedResults {
    fn new(capacity: usize) -> Self {
        // Distribute the budget; div_ceil keeps a non-zero capacity
        // per shard whenever the total is non-zero (capacity 0 still
        // means "cache disabled" exactly as before).
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(RESULT_SHARDS)
        };
        ShardedResults {
            shards: (0..RESULT_SHARDS)
                .map(|_| Mutex::new(ResultCache::with_capacity(per_shard)))
                .collect(),
        }
    }

    fn shard(&self, key: &ResultKey) -> &Mutex<ResultCache> {
        let mut h = ssim::core::FxHasher::default();
        h.write_u64(key.profile ^ key.machine.rotate_left(17));
        h.write_u64(key.r ^ key.seed.rotate_left(31));
        &self.shards[h.finish() as usize % self.shards.len()]
    }

    fn get(&self, key: &ResultKey) -> Option<PointResult> {
        self.shard(key).lock().unwrap().get(key)
    }

    fn insert(&self, key: ResultKey, value: PointResult) {
        self.shard(&key).lock().unwrap().insert(key, value);
    }
}

/// How a `workload` name in [`ProfileParams`] resolves to a program.
enum ProgramSource {
    /// A suite or corpus workload (`ssim_workloads::by_name`).
    Workload(&'static ssim::workloads::Workload),
    /// A registered submission (`program:<hash>`).
    Submitted { hash: u64, program: Arc<Program> },
}

/// The server's artifact store (shared across workers).
pub struct ArtifactStore {
    profiles: ShardedCache<ProfileParams, Arc<ProfileArtifact>>,
    results: ShardedResults,
    /// Submitted programs, keyed by [`program_hash`]. Registered images
    /// are immutable and content-addressed, so re-submitting the same
    /// text (or equivalent text — hashing happens after assembly) is
    /// idempotent.
    programs: ShardedCache<u64, Arc<Program>>,
}

impl ArtifactStore {
    /// An empty store whose result cache holds at most
    /// `result_capacity` points.
    pub fn new(result_capacity: usize) -> Self {
        ArtifactStore {
            profiles: ShardedCache::new(8),
            results: ShardedResults::new(result_capacity),
            programs: ShardedCache::new(8),
        }
    }

    /// Registers a submitted program under its content hash and returns
    /// the hash. Idempotent: the same image registers once.
    pub fn register_program(&self, program: Program) -> u64 {
        let hash = program_hash(&program);
        let mut fresh = false;
        self.programs.get_or_build(hash, || {
            fresh = true;
            Arc::new(program)
        });
        if fresh {
            OBS_PROGRAMS.inc();
        }
        hash
    }

    /// Looks a registered program up by its content hash.
    pub fn lookup_program(&self, hash: u64) -> Option<Arc<Program>> {
        self.programs.get(&hash)
    }

    /// Resolves a `workload` name from [`ProfileParams`]: either a
    /// suite/corpus workload or `program:<hash>` naming a registered
    /// submission.
    fn resolve_program(&self, name: &str) -> Result<ProgramSource, String> {
        if let Some(hex) = name.strip_prefix("program:") {
            let hash = u64::from_str_radix(hex, 16)
                .map_err(|_| format!("malformed program name {name:?}"))?;
            let program = self
                .lookup_program(hash)
                .ok_or_else(|| format!("unknown program {name:?} (submit it first)"))?;
            return Ok(ProgramSource::Submitted { hash, program });
        }
        ssim::workloads::by_name(name)
            .map(ProgramSource::Workload)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }

    /// Resolves (building exactly once per key, even under concurrent
    /// requests) the profile artifact for `params`.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown workload or program names.
    pub fn profile(&self, params: &ProfileParams) -> Result<Arc<ProfileArtifact>, String> {
        // Validate the name before committing a cell, so a typo fails
        // fast instead of poisoning the map.
        let source = self.resolve_program(&params.workload)?;
        // First caller builds (outside the shard lock — profiling is
        // the expensive pass); concurrent callers for the same key
        // block on its cell, callers for other keys proceed.
        Ok(self.profiles.get_or_build(params.clone(), || {
            OBS_PROFILE_BUILDS.inc();
            let cfg = ProfileConfig::new(&MachineConfig::baseline())
                .skip(params.skip)
                .instructions(params.instructions);
            let profile = match &source {
                ProgramSource::Workload(w) => ssim_bench::profile_cached(w, &cfg),
                ProgramSource::Submitted { hash, program } => {
                    // Submitted programs share the on-disk cache under
                    // their content hash (filesystem-safe, aliasing-free
                    // — see `program_hash`).
                    ssim_bench::profile_cached_keyed(&format!("program-{hash:016x}"), &cfg, || {
                        (**program).clone()
                    })
                }
            };
            let hash = profile.content_hash();
            Arc::new(ProfileArtifact {
                profile: Arc::new(profile),
                hash,
                samplers: ShardedCache::new(8),
            })
        }))
    }

    /// Simulates one design point, answering from the result cache when
    /// the identical `(profile, machine, R, seed)` was computed before.
    ///
    /// A miss runs the fused generate-and-simulate path on the worker
    /// thread's reused simulator buffers (`ssim_bench::with_engine`);
    /// the result is bit-identical to simulating
    /// `artifact.sampler(r).generate(seed)` — the engine's equivalence
    /// suite pins this.
    ///
    /// On a cache hit the sampler is not even looked up, so a repeated
    /// point skips the lowering along with the simulation.
    pub fn simulate_point(
        &self,
        artifact: &ProfileArtifact,
        machine: &MachineConfig,
        r: u64,
        seed: u64,
    ) -> PointResult {
        let key = ResultKey {
            profile: artifact.hash,
            machine: machine_fingerprint(machine),
            r,
            seed,
        };
        if let Some(mut hit) = self.results.get(&key) {
            OBS_RESULT_HITS.inc();
            hit.cached = true;
            return hit;
        }
        OBS_RESULT_MISSES.inc();
        let sampler = artifact.sampler(r);
        let sim = ssim_bench::with_engine(|e| e.simulate_fused(&sampler, seed, machine));
        let point = PointResult {
            cycles: sim.cycles,
            instructions: sim.instructions,
            ipc: sim.ipc(),
            cached: false,
        };
        self.results.insert(key, point);
        point
    }
}

/// A cheap deterministic digest of a synthetic trace (folds every
/// instruction's fields), used by `synth` responses so clients can
/// verify reproducibility without shipping the trace itself.
pub fn trace_digest(trace: &SyntheticTrace) -> u64 {
    let mut h = ssim::core::FxHasher::default();
    for instr in trace.instrs() {
        h.write_u8(instr.class.index() as u8);
        for dep in instr.dep.iter().chain(instr.anti_dep.iter()) {
            h.write_u32(dep.map_or(u32::MAX, |d| d));
        }
        let mut flags = 0u8;
        flags |= instr.l1i_miss as u8;
        flags |= (instr.l2i_miss as u8) << 1;
        flags |= (instr.itlb_miss as u8) << 2;
        if let Some(d) = instr.dmem {
            flags |= 1 << 3;
            flags |= (d.l1_miss as u8) << 4;
            flags |= (d.l2_miss as u8) << 5;
            flags |= (d.tlb_miss as u8) << 6;
        }
        h.write_u8(flags);
        if let Some(b) = instr.branch {
            h.write_u8(1 + b.taken as u8 + ((b.outcome as u8) << 1));
        } else {
            h.write_u8(0);
        }
    }
    h.write_u64(trace.len() as u64);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> ProfileParams {
        ProfileParams {
            workload: "gzip".to_string(),
            instructions: 20_000,
            skip: 0,
        }
    }

    fn isolated_store() -> ArtifactStore {
        // Keep unit tests off the shared on-disk cache directory.
        std::env::set_var("SSIM_NO_PROFILE_CACHE", "1");
        ArtifactStore::new(64)
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let store = isolated_store();
        assert!(store
            .profile(&ProfileParams {
                workload: "nonesuch".to_string(),
                instructions: 1000,
                skip: 0,
            })
            .is_err());
    }

    #[test]
    fn profile_and_sampler_are_built_once() {
        let store = isolated_store();
        let a = store.profile(&small_params()).unwrap();
        let b = store.profile(&small_params()).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second resolve rebuilt the profile");
        assert!(Arc::ptr_eq(&a.sampler(10), &b.sampler(10)));
        assert_eq!(a.hash, a.profile.content_hash());
    }

    #[test]
    fn simulate_point_caches_and_matches_direct() {
        let store = isolated_store();
        let artifact = store.profile(&small_params()).unwrap();
        let machine = MachineConfig::baseline().with_width(4);
        let first = store.simulate_point(&artifact, &machine, 10, 3);
        let second = store.simulate_point(&artifact, &machine, 10, 3);
        assert!(!first.cached);
        assert!(second.cached);
        let direct = simulate_trace(&artifact.profile.generate(10, 3), &machine);
        assert_eq!(first.cycles, direct.cycles);
        assert_eq!(first.instructions, direct.instructions);
        assert_eq!(first.ipc.to_bits(), direct.ipc().to_bits());
        // A different machine is a different key.
        let other = store.simulate_point(&artifact, &MachineConfig::baseline(), 10, 3);
        assert!(!other.cached);
    }

    #[test]
    fn fused_point_matches_materialised_and_shares_cache() {
        let store = isolated_store();
        let artifact = store.profile(&small_params()).unwrap();
        let machine = MachineConfig::baseline().with_window(96);
        let fused = store.simulate_point(&artifact, &machine, 10, 5);
        assert!(!fused.cached);
        // A repeat answers from the entry the first call filled.
        let hit = store.simulate_point(&artifact, &machine, 10, 5);
        assert!(hit.cached);
        let direct = simulate_trace(&artifact.profile.generate(10, 5), &machine);
        assert_eq!(fused.cycles, direct.cycles);
        assert_eq!(fused.instructions, direct.instructions);
        assert_eq!(fused.ipc.to_bits(), direct.ipc().to_bits());
    }

    #[test]
    fn concurrent_same_key_resolves_share_one_artifact() {
        let store = isolated_store();
        let barrier = std::sync::Barrier::new(8);
        let artifacts: Vec<Arc<ProfileArtifact>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (store, barrier) = (&store, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        let a = store.profile(&small_params()).unwrap();
                        // Sampler storm on the same r while other
                        // threads are doing the same.
                        let _ = a.sampler(9);
                        a
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for a in &artifacts[1..] {
            assert!(Arc::ptr_eq(a, &artifacts[0]), "profile built twice");
            assert!(
                Arc::ptr_eq(&a.sampler(9), &artifacts[0].sampler(9)),
                "sampler lowered twice for one r"
            );
        }
    }

    #[test]
    fn result_cache_evicts_fifo() {
        let mut cache = ResultCache {
            capacity: 2,
            map: HashMap::new(),
            order: VecDeque::new(),
        };
        let key = |seed| ResultKey {
            profile: 1,
            machine: 2,
            r: 3,
            seed,
        };
        let point = PointResult {
            cycles: 1,
            instructions: 1,
            ipc: 1.0,
            cached: false,
        };
        cache.insert(key(1), point);
        cache.insert(key(2), point);
        cache.insert(key(3), point);
        assert!(cache.get(&key(1)).is_none(), "oldest entry not evicted");
        assert!(cache.get(&key(2)).is_some());
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn trace_digest_distinguishes_seeds() {
        let store = isolated_store();
        let artifact = store.profile(&small_params()).unwrap();
        let sampler = artifact.sampler(10);
        let d1 = trace_digest(&sampler.generate(1));
        let d2 = trace_digest(&sampler.generate(2));
        let d1_again = trace_digest(&sampler.generate(1));
        assert_eq!(d1, d1_again);
        assert_ne!(d1, d2);
        // Pinned: a `synth` reply's digest is part of the wire contract,
        // so a change to the trace format or the walk must not move it.
        assert_eq!(d1, 0x4581_9cb9_5e33_374b);
        assert_eq!(d2, 0x594e_fdbb_b788_349d);
    }
}
