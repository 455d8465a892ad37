//! The docs quote the committed bench ledger (`results/BENCH_*.json`)
//! by file name instead of copying its numbers. A citation of a ledger
//! file the repository no longer has sends readers to numbers that do
//! not exist, so this test fails on any such citation in the README,
//! DESIGN, EXPERIMENTS or the verify skill.

use std::path::{Path, PathBuf};

/// The documents that cite the ledger, relative to the workspace root.
const DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

/// Every `BENCH_<name>.json` file name cited in `text`. Globs such as
/// `BENCH_*.json` name no file and are skipped.
fn ledger_citations(text: &str) -> Vec<&str> {
    const PREFIX: &str = "BENCH_";
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find(PREFIX) {
        let tail = &rest[pos..];
        let len = tail
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.'))
            .unwrap_or(tail.len());
        let name = tail[..len].trim_end_matches('.');
        if name.len() > PREFIX.len() + ".json".len() && name.ends_with(".json") {
            out.push(name);
        }
        rest = &tail[PREFIX.len()..];
    }
    out
}

#[test]
fn citation_scanner_finds_file_names_only() {
    let text = "see `results/BENCH_load.json` (`p99_us`), BENCH_dse.json. \
                Upload results/BENCH_*.json; BENCH_ alone is no file.";
    assert_eq!(
        ledger_citations(text),
        vec!["BENCH_load.json", "BENCH_dse.json"]
    );
}

#[test]
fn docs_cite_only_committed_ledger_files() {
    let root = workspace_root();
    let mut cited = 0;
    for doc in DOCS {
        let text =
            std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("read {doc}: {e}"));
        for name in ledger_citations(&text) {
            cited += 1;
            assert!(
                root.join("results").join(name).is_file(),
                "{doc} cites {name}, which is not under results/ — point the \
                 passage at the file that now holds the number (or at the \
                 perfbench metric), not at a deleted ledger"
            );
        }
    }
    assert!(cited > 0, "no ledger citations found — scan broken?");
}
