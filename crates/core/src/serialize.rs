//! Profile persistence: a compact, dependency-free binary format.
//!
//! A statistical profile is a reusable artifact — profile once (the
//! only pass over the full program), explore designs forever. This
//! module gives [`StatisticalProfile`] a versioned binary encoding so
//! profiles can be stored and shared across processes.
//!
//! Format (little-endian throughout): a magic/version header, the SFG
//! (nodes with edge lists), then the per-context characteristics. The
//! loader validates the magic, version, and all internal counts.
//!
//! # Examples
//!
//! ```no_run
//! # fn main() -> std::io::Result<()> {
//! use ssim_core::{profile, ProfileConfig, StatisticalProfile};
//! use ssim_uarch::MachineConfig;
//!
//! let machine = MachineConfig::baseline();
//! let program = ssim_workloads::by_name("gzip").unwrap().program();
//! let p = profile(&program, &ProfileConfig::new(&machine));
//!
//! let mut bytes = Vec::new();
//! p.save(&mut bytes)?;
//! let restored = StatisticalProfile::load(&mut bytes.as_slice())?;
//! assert_eq!(restored.context_count(), p.context_count());
//! # Ok(())
//! # }
//! ```

use crate::sfg::{BranchCtxStats, ContextStats, MissStats, SlotStats, StatisticalProfile};
use crate::{Context, Gram, Sfg};
use ssim_isa::InstrClass;
use ssim_stats::{Histogram, ProbCounter};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"SSIMPRF\0";
const VERSION: u32 = 1;

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Upper bound on speculative `Vec::with_capacity` from untrusted
/// length prefixes. Real profiles stay far below this; a corrupted
/// count larger than it just grows the vector incrementally until the
/// stream runs out, instead of attempting a giant allocation up front.
const PREALLOC_CAP: usize = 4096;

// ---- primitive writers/readers --------------------------------------

fn w_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_u128<W: Write>(w: &mut W, v: u128) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn r_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}
fn r_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}
fn r_u128<R: Read>(r: &mut R) -> io::Result<u128> {
    let mut b = [0u8; 16];
    r.read_exact(&mut b)?;
    Ok(u128::from_le_bytes(b))
}

fn w_hist<W: Write>(w: &mut W, h: &Histogram) -> io::Result<()> {
    w_u32(w, h.distinct() as u32)?;
    for (v, c) in h.iter() {
        w_u32(w, v)?;
        w_u64(w, c)?;
    }
    Ok(())
}
fn r_hist<R: Read>(r: &mut R) -> io::Result<Histogram> {
    let n = r_u32(r)?;
    let mut h = Histogram::new();
    let mut total = 0u64;
    for _ in 0..n {
        let v = r_u32(r)?;
        let c = r_u64(r)?;
        // A corrupted count whose running sum overflows u64 would panic
        // inside Histogram's accumulator; reject it as bad data instead.
        total = total
            .checked_add(c)
            .ok_or_else(|| bad("histogram counts overflow"))?;
        h.record_n(v, c);
    }
    Ok(h)
}

fn w_prob<W: Write>(w: &mut W, p: &ProbCounter) -> io::Result<()> {
    w_u64(w, p.events())?;
    w_u64(w, p.trials())
}
fn r_prob<R: Read>(r: &mut R) -> io::Result<ProbCounter> {
    let events = r_u64(r)?;
    let trials = r_u64(r)?;
    if events > trials {
        return Err(bad("probability counter with events > trials"));
    }
    Ok(ProbCounter::from_counts(events, trials))
}

fn w_miss<W: Write>(w: &mut W, m: &MissStats) -> io::Result<()> {
    w_prob(w, &m.l1)?;
    w_prob(w, &m.l2)?;
    w_prob(w, &m.tlb)
}
fn r_miss<R: Read>(r: &mut R) -> io::Result<MissStats> {
    Ok(MissStats {
        l1: r_prob(r)?,
        l2: r_prob(r)?,
        tlb: r_prob(r)?,
    })
}

impl StatisticalProfile {
    /// Serialises the profile to `writer` in the versioned binary
    /// format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn save<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        writer.write_all(MAGIC)?;
        w_u32(writer, VERSION)?;
        w_u32(writer, self.k() as u32)?;
        w_u64(writer, self.instructions())?;
        w_u64(writer, self.branch_lookups())?;
        w_u64(writer, self.branch_mispredict_count())?;

        // SFG nodes.
        let nodes = self.sfg().export_nodes();
        w_u64(writer, nodes.len() as u64)?;
        for (gram, occurrence, edges) in nodes {
            w_u128(writer, gram)?;
            w_u64(writer, occurrence)?;
            w_u32(writer, edges.len() as u32)?;
            for (block, count) in edges {
                w_u32(writer, block)?;
                w_u64(writer, count)?;
            }
        }

        // Contexts.
        let mut contexts: Vec<_> = self.contexts().collect();
        contexts.sort_by_key(|(c, _)| **c);
        w_u64(writer, contexts.len() as u64)?;
        for (ctx, stats) in contexts {
            w_u128(writer, ctx.raw())?;
            w_u64(writer, stats.occurrence)?;
            w_u32(writer, stats.slots.len() as u32)?;
            for slot in &stats.slots {
                w_u32(writer, slot.class.index() as u32)?;
                w_u32(writer, u32::from(slot.src_count))?;
                w_hist(writer, &slot.dep[0])?;
                w_hist(writer, &slot.dep[1])?;
                w_hist(writer, &slot.waw)?;
                w_hist(writer, &slot.war)?;
                w_miss(writer, &slot.icache)?;
                w_u32(writer, u32::from(slot.dcache.is_some()))?;
                if let Some(d) = &slot.dcache {
                    w_miss(writer, d)?;
                }
            }
            w_u32(writer, u32::from(stats.branch.is_some()))?;
            if let Some(b) = &stats.branch {
                w_prob(writer, &b.taken)?;
                w_u64(writer, b.correct)?;
                w_u64(writer, b.redirect)?;
                w_u64(writer, b.mispredict)?;
            }
        }
        Ok(())
    }

    /// A 64-bit content hash of the profile: the FxHash of its
    /// serialized byte stream, computed without materialising the
    /// bytes.
    ///
    /// Two profiles hash equal iff they serialise identically, which
    /// (per the round-trip tests) holds iff they generate identical
    /// synthetic traces. The experiment service uses this as the
    /// profile component of its result-cache keys.
    pub fn content_hash(&self) -> u64 {
        struct HashWriter(crate::fxhash::FxHasher);
        impl Write for HashWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                std::hash::Hasher::write(&mut self.0, buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = HashWriter(crate::fxhash::FxHasher::default());
        self.save(&mut w).expect("hash writer cannot fail");
        std::hash::Hasher::finish(&w.0)
    }

    /// Deserialises a profile previously written with
    /// [`StatisticalProfile::save`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for wrong magic/version or any structural
    /// inconsistency, and propagates reader I/O errors.
    pub fn load<R: Read>(reader: &mut R) -> io::Result<StatisticalProfile> {
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not an ssim profile (bad magic)"));
        }
        let version = r_u32(reader)?;
        if version != VERSION {
            return Err(bad("unsupported profile version"));
        }
        let k = r_u32(reader)? as usize;
        if k > crate::sfg::MAX_K {
            return Err(bad("profile order exceeds MAX_K"));
        }
        let instructions = r_u64(reader)?;
        let branch_lookups = r_u64(reader)?;
        let branch_mispredicts = r_u64(reader)?;

        let mut sfg = Sfg::new(k);
        let n_nodes = r_u64(reader)?;
        for _ in 0..n_nodes {
            let gram = Gram::from_raw(r_u128(reader)?);
            // `save` writes each node once; a repeated gram would add
            // its occurrences onto the first one's, unchecked.
            if sfg.nodes().contains_key(&gram) {
                return Err(bad("duplicate SFG node"));
            }
            let occurrence = r_u64(reader)?;
            let n_edges = r_u32(reader)?;
            // Cap the preallocation: `n_edges` is untrusted input, and
            // a corrupted count must fail with InvalidData/EOF on the
            // next read, not abort the process in `with_capacity`.
            let mut edges = Vec::with_capacity((n_edges as usize).min(PREALLOC_CAP));
            let mut total = 0u64;
            for _ in 0..n_edges {
                let block = r_u32(reader)?;
                let count = r_u64(reader)?;
                total = total
                    .checked_add(count)
                    .ok_or_else(|| bad("edge counts overflow"))?;
                edges.push((block, count));
            }
            if total != occurrence {
                return Err(bad("node occurrence does not match edge counts"));
            }
            sfg.import_node(gram, occurrence, edges);
        }

        let mut contexts = crate::fxhash::FxHashMap::default();
        let n_ctx = r_u64(reader)?;
        for _ in 0..n_ctx {
            let ctx = Context::from_raw(r_u128(reader)?);
            let occurrence = r_u64(reader)?;
            let n_slots = r_u32(reader)?;
            let mut slots = Vec::with_capacity((n_slots as usize).min(PREALLOC_CAP));
            for _ in 0..n_slots {
                let class_index = r_u32(reader)? as usize;
                let class = *InstrClass::ALL
                    .get(class_index)
                    .ok_or_else(|| bad("instruction class out of range"))?;
                let src_count = r_u32(reader)?;
                if src_count > 2 {
                    return Err(bad("operand count out of range"));
                }
                let dep0 = r_hist(reader)?;
                let dep1 = r_hist(reader)?;
                let waw = r_hist(reader)?;
                let war = r_hist(reader)?;
                let icache = r_miss(reader)?;
                let has_d = r_u32(reader)? != 0;
                let dcache = if has_d { Some(r_miss(reader)?) } else { None };
                let mut slot = SlotStats::new(class, src_count as u8);
                slot.dep = [dep0, dep1];
                slot.waw = waw;
                slot.war = war;
                slot.icache = icache;
                slot.dcache = dcache;
                slots.push(slot);
            }
            let has_branch = r_u32(reader)? != 0;
            let branch = if has_branch {
                Some(BranchCtxStats {
                    taken: r_prob(reader)?,
                    correct: r_u64(reader)?,
                    redirect: r_u64(reader)?,
                    mispredict: r_u64(reader)?,
                })
            } else {
                None
            };
            contexts.insert(
                ctx,
                ContextStats {
                    occurrence,
                    slots,
                    branch,
                },
            );
        }
        Ok(StatisticalProfile::from_parts(
            sfg,
            contexts,
            instructions,
            branch_lookups,
            branch_mispredicts,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::{profile, ProfileConfig};
    use ssim_uarch::MachineConfig;

    fn sample_profile() -> StatisticalProfile {
        let program = {
            use ssim_isa::{Assembler, Reg};
            let mut a = Assembler::new("s");
            let buf = a.alloc_words(64);
            let (i, n, t) = (Reg::R1, Reg::R2, Reg::R3);
            a.li(n, 20_000);
            let top = a.here_label();
            let skip = a.label();
            a.andi(t, i, 63);
            a.slli(t, t, 3);
            a.addi(t, t, buf as i64);
            a.ld(t, t, 0);
            a.andi(t, t, 1);
            a.beq(t, Reg::R0, skip);
            a.addi(i, i, 2);
            a.bind(skip).unwrap();
            a.addi(i, i, 1);
            a.blt(i, n, top);
            a.halt();
            a.finish().unwrap()
        };
        profile(
            &program,
            &ProfileConfig::new(&MachineConfig::baseline())
                .skip(0)
                .instructions(50_000),
        )
    }

    #[test]
    fn roundtrip_preserves_everything_observable() {
        let p = sample_profile();
        let mut bytes = Vec::new();
        p.save(&mut bytes).unwrap();
        let q = StatisticalProfile::load(&mut bytes.as_slice()).unwrap();
        assert_eq!(q.k(), p.k());
        assert_eq!(q.instructions(), p.instructions());
        assert_eq!(q.context_count(), p.context_count());
        assert_eq!(q.sfg().node_count(), p.sfg().node_count());
        assert_eq!(q.branch_mpki(), p.branch_mpki());
        // The ultimate test: both generate identical synthetic traces.
        let (a, b) = (p.generate(10, 9), q.generate(10, 9));
        assert_eq!(a, b);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = StatisticalProfile::load(&mut &b"NOTSSIM0rest"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_stream_rejected() {
        let p = sample_profile();
        let mut bytes = Vec::new();
        p.save(&mut bytes).unwrap();
        bytes.truncate(bytes.len() / 2);
        assert!(StatisticalProfile::load(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn corrupted_counts_rejected() {
        let p = sample_profile();
        let mut bytes = Vec::new();
        p.save(&mut bytes).unwrap();
        // Flip a byte in the middle (likely a count somewhere).
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        // Either an explicit InvalidData or a read failure is fine; it
        // must not panic or silently succeed with the same trace.
        match StatisticalProfile::load(&mut bytes.as_slice()) {
            Err(_) => {}
            Ok(q) => {
                let (a, b) = (p.generate(10, 1), q.generate(10, 1));
                assert_ne!(a, b, "corruption silently ignored");
            }
        }
    }
}
