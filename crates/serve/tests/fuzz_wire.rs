//! Fuzzing the wire decoders: hostile lines must come back as `Ok` or
//! `Err`, never as a panic or an outsized allocation.
//!
//! Every request line a server or gateway reads, and every reply a
//! gateway reads from its backends, goes through [`Json::parse`], then
//! [`Envelope::parse`] or [`PointResult::from_json`]. Two generators
//! drive them:
//!
//! * **token soup** — random sequences of JSON punctuation, literals,
//!   escapes and the protocol's own keys and kinds, which reach far
//!   deeper into the decoders than raw bytes would;
//! * **mutated corpus** — valid request lines of every `kind` and valid
//!   backend replies, with seeded byte flips, truncations and splices.
//!
//! A journaled server reads its journal back on start through
//! [`replay_bytes`], and parses each accepted request with
//! [`Envelope::parse`]. Journals get the same mutations, and so do
//! record bodies re-framed under a valid checksum, which is what
//! reaches the record decoder past the checksum.
//!
//! A counting global allocator records the largest single allocation
//! each thread makes, and every input must stay under
//! [`alloc_cap`] of its length. Separate cases pin that a 1 MiB string
//! or array parses in linear time.
//!
//! The in-repo proptest stand-in derives its RNG stream from the test
//! name, so every run sees the same cases.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use ssim::core::FxHasher;
use ssim_serve::journal::{render_line, replay_bytes, Record};
use ssim_serve::json::Json;
use ssim_serve::proto::{err_response, ok_response, point_frame, Envelope};
use ssim_serve::{sweep_digest, MachineSpec, PointResult, ProfileParams, Request};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hash::Hasher;
use std::time::{Duration, Instant};

/// The system allocator, noting the largest single request each thread
/// makes.
struct Counting;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // A thread past its teardown has no slot left; nothing it
    // allocates then belongs to a case.
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The largest single allocation decoding `len` input bytes may make.
fn alloc_cap(len: usize) -> usize {
    64 * len + (1 << 20)
}

/// Runs every decoder over `line`. Each may accept or reject it; a
/// panic fails the case with the input attached, and so does an
/// allocation over [`alloc_cap`].
fn feed(line: &str) {
    LARGEST.with(|m| m.set(0));
    let _ = Envelope::parse(line);
    if let Ok(v) = Json::parse(line) {
        // A backend reply: a point at top level (`simulate`), in a
        // frame, or in a sweep's results.
        let _ = PointResult::from_json(&v);
        if let Some(point) = v.get("point") {
            let _ = PointResult::from_json(point);
        }
        for point in v.get("results").and_then(Json::as_arr).unwrap_or(&[]) {
            let _ = PointResult::from_json(point);
        }
    }
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= alloc_cap(line.len()),
        "a {}-byte line made a {largest}-byte allocation",
        line.len()
    );
}

/// Replays `bytes` as a journal, then parses each accepted request as
/// a restarting server does. Replay must keep a prefix of whole lines
/// with one record each; a panic or an allocation over [`alloc_cap`]
/// fails the case.
fn feed_journal(bytes: &[u8]) {
    LARGEST.with(|m| m.set(0));
    let (records, valid) = replay_bytes(bytes);
    assert!(valid <= bytes.len());
    assert!(
        valid == 0 || bytes[valid - 1] == b'\n',
        "replay kept a torn line"
    );
    let lines = bytes[..valid].iter().filter(|&&b| b == b'\n').count();
    assert_eq!(
        records.len(),
        lines,
        "replay kept a line without its record"
    );
    for rec in &records {
        if let Record::Accepted { request, .. } = rec {
            let _ = Envelope::parse(&request.render());
        }
    }
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= alloc_cap(bytes.len()),
        "a {}-byte journal made a {largest}-byte allocation",
        bytes.len()
    );
}

const PUNCT: &[&str] = &["{", "}", "[", "]", ":", ",", "\"", " ", "\n", "\\"];
const LITERALS: &[&str] = &[
    "0",
    "1",
    "-1",
    "-0",
    "1.5",
    "1e3",
    "1e400",
    "-1e400",
    "1e",
    "--1",
    "0x10",
    "18446744073709551615",
    "18446744073709551616",
    "true",
    "false",
    "null",
    "nul",
    "\"\"",
    "\"\\u0041\"",
    "\"\\ud800\"",
    "\"\\u12\"",
    "\"\\uzzzz\"",
    "\"\\q\"",
    "\"\\",
    "\"é\"",
];
const KEYS: &[&str] = &[
    "\"id\"",
    "\"kind\"",
    "\"deadline_ms\"",
    "\"job\"",
    "\"workload\"",
    "\"instructions\"",
    "\"skip\"",
    "\"r\"",
    "\"seed\"",
    "\"seeds\"",
    "\"machine\"",
    "\"machines\"",
    "\"width\"",
    "\"window\"",
    "\"ifq\"",
    "\"in_order\"",
    "\"source\"",
    "\"ok\"",
    "\"error\"",
    "\"retry_after_ms\"",
    "\"cycles\"",
    "\"ipc\"",
    "\"cached\"",
    "\"frame\"",
    "\"point\"",
    "\"index\"",
    "\"results\"",
    "\"digest\"",
];
const KINDS: &[&str] = &[
    "\"profile\"",
    "\"synth\"",
    "\"simulate\"",
    "\"sweep\"",
    "\"sweep-stream\"",
    "\"assemble\"",
    "\"submit-program\"",
    "\"job-result\"",
    "\"metrics\"",
    "\"shutdown\"",
    "\"gzip\"",
    "\"program:0\"",
];

fn soup_atom(rng: &mut TestRng) -> &'static str {
    let pick =
        |xs: &'static [&'static str], rng: &mut TestRng| xs[rng.below(xs.len() as u64) as usize];
    match rng.below(4) {
        0 => pick(PUNCT, rng),
        1 => pick(LITERALS, rng),
        2 => pick(KEYS, rng),
        _ => pick(KINDS, rng),
    }
}

/// Valid request lines of every kind and valid backend replies.
fn corpus() -> Vec<String> {
    let profile = ProfileParams {
        workload: "gzip".to_string(),
        instructions: 300_000,
        skip: 100_000,
    };
    let machine = MachineSpec {
        width: Some(4),
        window: Some(64),
        in_order: true,
        ..MachineSpec::default()
    };
    let source = "; a program\nloop: addi r1, r1, 1\n  halt\n".to_string();
    let requests = [
        Request::Profile(profile.clone()),
        Request::Synth {
            profile: profile.clone(),
            r: 15,
            seed: 1,
        },
        Request::Simulate {
            profile: profile.clone(),
            machine: machine.clone(),
            r: 15,
            seed: 2,
        },
        Request::Sweep {
            profile: profile.clone(),
            machines: vec![machine.clone(), MachineSpec::default()],
            r: 15,
            seeds: vec![1, 2],
        },
        Request::SweepStream {
            profile,
            machines: vec![machine],
            r: 15,
            seeds: vec![3],
        },
        Request::JobResult {
            job: "nightly-1".to_string(),
        },
        Request::Assemble {
            source: source.clone(),
        },
        Request::SubmitProgram {
            source,
            instructions: 10_000,
            skip: 0,
        },
        Request::Metrics,
        Request::Shutdown,
    ];
    let mut lines: Vec<String> = requests
        .into_iter()
        .enumerate()
        .map(|(i, req)| {
            Envelope {
                id: i as u64 + 1,
                deadline_ms: (i % 2 == 0).then_some(5_000),
                job: (i % 3 == 0).then(|| format!("job-{i}")),
                req,
            }
            .render()
        })
        .collect();
    let points = [
        PointResult {
            cycles: 120_345,
            instructions: 100_000,
            ipc: 100_000.0 / 120_345.0,
            cached: false,
        },
        PointResult {
            cycles: 1,
            instructions: 0,
            ipc: 0.0,
            cached: true,
        },
    ];
    // A `simulate` reply carries its point at top level.
    let p = points[0];
    lines.push(ok_response(
        3,
        vec![
            ("cycles", Json::Num(p.cycles as f64)),
            ("instructions", Json::Num(p.instructions as f64)),
            ("ipc", Json::Num(p.ipc)),
            ("cached", Json::Bool(p.cached)),
        ],
    ));
    lines.push(point_frame(4, 1, &points[1]));
    lines.push(ok_response(
        5,
        vec![
            ("machines", Json::Num(2.0)),
            ("seeds", Json::Num(1.0)),
            (
                "results",
                Json::Arr(points.iter().map(PointResult::to_json).collect()),
            ),
            ("digest", Json::hex_u64(sweep_digest(&points))),
        ],
    ));
    lines.push(err_response(6, "queue full", Some(5)));
    lines.push(err_response(7, "unknown workload \"nope\"", None));
    lines
}

/// Journal records: an `accepted` record for each request line of the
/// corpus, stored as a server stores it (id 0, the job key in the
/// envelope), and `completed` records with an object and an error
/// payload.
fn journal_records() -> Vec<Record> {
    let corpus = corpus();
    let mut records: Vec<Record> = corpus[..10]
        .iter()
        .enumerate()
        .map(|(i, line)| {
            let job = format!("job-{i}");
            let env = Envelope::parse(line).unwrap();
            let stored = Envelope {
                id: 0,
                deadline_ms: None,
                job: Some(job.clone()),
                req: env.req,
            };
            Record::Accepted {
                job,
                request: Json::parse(&stored.render()).unwrap(),
            }
        })
        .collect();
    records.push(Record::Completed {
        job: "job-0".to_string(),
        ok: true,
        payload: Json::parse(&corpus[12]).unwrap(),
    });
    records.push(Record::Completed {
        job: "job-1".to_string(),
        ok: false,
        payload: Json::str("unknown workload \"nope\""),
    });
    records
}

/// Whole journals: every record, the first three, and every record
/// followed by a torn half of one more.
fn journal_corpus() -> Vec<String> {
    let lines: Vec<String> = journal_records().iter().map(render_line).collect();
    let full = lines.concat();
    let last = &lines[lines.len() - 1];
    vec![
        full.clone(),
        lines[..3].concat(),
        full + &last[..last.len() / 2],
    ]
}

/// One journal line for `body` under a valid checksum, as
/// `journal::render_line` frames a record.
fn framed(body: &str) -> String {
    let mut h = FxHasher::default();
    h.write(body.as_bytes());
    format!("{:016x} {body}\n", h.finish())
}

/// Applies one seeded mutation to a line.
fn mutate(line: &str, corpus: &[String], rng: &mut TestRng) -> String {
    let mut bytes = line.as_bytes().to_vec();
    if bytes.is_empty() {
        return corpus[0].clone();
    }
    match rng.below(4) {
        // Byte flips (possibly producing invalid UTF-8 → lossy text).
        0 => {
            for _ in 0..=rng.below(8) {
                let i = rng.below(bytes.len() as u64) as usize;
                bytes[i] ^= (rng.below(255) + 1) as u8;
            }
        }
        // Truncation mid-line.
        1 => bytes.truncate(rng.below(bytes.len() as u64) as usize),
        // Splice a slice of another line in at a random offset.
        2 => {
            let other = corpus[rng.below(corpus.len() as u64) as usize].as_bytes();
            let from = rng.below(other.len() as u64) as usize;
            let to = from + rng.below((other.len() - from) as u64 + 1) as usize;
            let at = rng.below(bytes.len() as u64 + 1) as usize;
            bytes.splice(at..at, other[from..to].iter().copied());
        }
        // Delete a random run.
        _ => {
            let from = rng.below(bytes.len() as u64) as usize;
            let to = from + rng.below((bytes.len() - from) as u64 + 1) as usize;
            bytes.drain(from..to);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Token soup: JSON and protocol words in random order.
    #[test]
    fn token_soup_never_panics(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        let mut line = String::new();
        for _ in 0..=rng.below(160) {
            line.push_str(soup_atom(&mut rng));
        }
        feed(&line);
    }

    /// Mutated corpus: real request lines and replies, lightly damaged.
    #[test]
    fn mutated_corpus_never_panics(seed in any::<u64>()) {
        let corpus = corpus();
        let mut rng = TestRng::from_seed(seed);
        let mut line = corpus[rng.below(corpus.len() as u64) as usize].clone();
        for _ in 0..=rng.below(3) {
            line = mutate(&line, &corpus, &mut rng);
        }
        feed(&line);
    }

    /// Journals: whole journals lightly damaged, or a valid journal
    /// prefix followed by one damaged record body under a valid
    /// checksum.
    #[test]
    fn mutated_journals_never_panic(seed in any::<u64>()) {
        let journals = journal_corpus();
        let mut rng = TestRng::from_seed(seed);
        let journal = if rng.below(2) == 0 {
            let mut text = journals[rng.below(journals.len() as u64) as usize].clone();
            for _ in 0..=rng.below(3) {
                text = mutate(&text, &journals, &mut rng);
            }
            text
        } else {
            let records = journal_records();
            let lines: Vec<String> = records.iter().map(render_line).collect();
            let keep = rng.below(lines.len() as u64 + 1) as usize;
            let mut body = records[rng.below(records.len() as u64) as usize].to_json().render();
            for _ in 0..=rng.below(3) {
                body = mutate(&body, &corpus(), &mut rng);
            }
            lines[..keep].concat() + &framed(&body)
        };
        feed_journal(journal.as_bytes());
    }
}

/// Every corpus journal replays whole but for its torn tail, so the
/// mutations start from journals the decoder reads to the end.
#[test]
fn the_journal_corpus_replays() {
    let records = journal_records();
    let journals = journal_corpus();
    let (all, valid) = replay_bytes(journals[0].as_bytes());
    assert_eq!((all, valid), (records.clone(), journals[0].len()));
    assert_eq!(replay_bytes(journals[1].as_bytes()).0, records[..3]);
    let (torn, valid) = replay_bytes(journals[2].as_bytes());
    assert_eq!((torn, valid), (records, journals[0].len()));
    for journal in &journals {
        feed_journal(journal.as_bytes());
    }
    for rec in &journal_records()[..10] {
        let Record::Accepted { request, .. } = rec else {
            unreachable!("the first ten records are accepted ones")
        };
        Envelope::parse(&request.render()).unwrap();
    }
    assert_eq!(
        render_line(&journal_records()[0]),
        framed(&journal_records()[0].to_json().render())
    );
}

/// Every corpus line decodes as what it is, so the mutations start from
/// inputs that reach the decoders' far ends.
#[test]
fn the_corpus_is_valid() {
    let corpus = corpus();
    for line in &corpus[..10] {
        Envelope::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
    let reply = |i: usize| Json::parse(&corpus[i]).unwrap();
    PointResult::from_json(&reply(10)).unwrap();
    PointResult::from_json(reply(11).get("point").unwrap()).unwrap();
    assert_eq!(
        reply(12)
            .get("results")
            .and_then(Json::as_arr)
            .unwrap()
            .len(),
        2
    );
    for line in &corpus[13..] {
        assert_eq!(
            Json::parse(line).unwrap().get("ok"),
            Some(&Json::Bool(false))
        );
    }
}

/// A handful of shapes pinned explicitly so they outlive any change to
/// the generators.
#[test]
fn regression_shapes_never_panic() {
    let deep = "[".repeat(10_000);
    for line in [
        "",
        " ",
        "{",
        "}",
        "\"",
        "\"\\u",
        "\"\\u00",
        "\"\\ud83d\\ude00\"",
        "{\"id\":1e400,\"kind\":\"metrics\"}",
        "{\"id\":-1,\"kind\":\"metrics\"}",
        "{\"id\":1,\"kind\":\"sweep\",\"workload\":\"gzip\",\"machines\":[{}],\"seeds\":[1e20]}",
        "{\"id\":1,\"kind\":\"sweep\",\"workload\":\"gzip\",\"machines\":[],\"r\":1}",
        "{\"id\":1,\"kind\":\"simulate\",\"machine\":{\"width\":1e300}}",
        "{\"cycles\":-1,\"instructions\":1,\"ipc\":\"x\"}",
        "{\"frame\":\"point\",\"point\":[]}",
        "{\"results\":[null,{},{\"cycles\":1}]}",
        deep.as_str(),
    ] {
        feed(line);
    }
}

/// One megabyte of a single string (plain and escaped) or of a flat
/// array parses in well under a second: the parser is linear.
#[test]
fn a_mebibyte_string_or_array_parses_in_linear_time() {
    const MIB: usize = 1 << 20;
    let lines = [
        format!("\"{}\"", "a".repeat(MIB)),
        format!("\"{}\"", "\\n".repeat(MIB / 2)),
        format!("[{}0]", "0,".repeat(MIB / 2)),
        format!(
            "{{\"id\":1,\"kind\":\"assemble\",\"source\":\"{}\"}}",
            "x".repeat(MIB)
        ),
    ];
    for line in &lines {
        let started = Instant::now();
        feed(line);
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "a {}-byte line took {took:?} to decode",
            line.len()
        );
    }
}
