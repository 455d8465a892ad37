//! The docs quote the committed bench ledger (`results/BENCH_*.json`)
//! by file name instead of copying its numbers. A citation of a ledger
//! file the repository no longer has sends readers to numbers that do
//! not exist, so this test fails on any such citation in the README,
//! DESIGN, EXPERIMENTS or the verify skill.
//!
//! EXPERIMENTS.md and README.md do copy the exhibits' numbers
//! (`results/<bin>.txt`) next to the paper's, so every percentage in a
//! paragraph or list item that cites one exhibit must appear verbatim
//! in that file. The paper's own figures live in EXPERIMENTS.md's
//! *Paper:* paragraphs, which cite no exhibit; a paper figure quoted
//! beside a measured one passes only when the exhibit's `paper:` line
//! prints it too.

use std::collections::BTreeSet;
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
    let text = "see `results/BENCH_load.json` (`p99_us`), BENCH_scaling.json. \
                Upload results/BENCH_*.json; BENCH_ alone is no file.";
    assert_eq!(
        ledger_citations(text),
        vec!["BENCH_load.json", "BENCH_scaling.json"]
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

/// The paragraphs and list items of a Markdown text: blocks split at
/// blank lines, and again before every line that starts a list item.
fn blocks(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for line in text.lines() {
        let trimmed = line.trim_start();
        let item = trimmed.starts_with("* ") || trimmed.starts_with("- ");
        if (trimmed.is_empty() || item) && !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
        if !trimmed.is_empty() {
            cur.push_str(line);
            cur.push('\n');
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Every exhibit file (`results/<bin>.txt`) cited in `text`, each once.
fn exhibit_citations(text: &str) -> BTreeSet<&str> {
    const PREFIX: &str = "results/";
    let mut out = BTreeSet::new();
    let mut rest = text;
    while let Some(pos) = rest.find(PREFIX) {
        let tail = &rest[pos + PREFIX.len()..];
        let len = tail
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.'))
            .unwrap_or(tail.len());
        let name = tail[..len].trim_end_matches('.');
        if name.len() > ".txt".len() && name.ends_with(".txt") {
            out.insert(name);
        }
        rest = tail;
    }
    out
}

/// Every percentage in `text` as written (`6.0%`, `2%`): the digits and
/// decimal point right before each `%` sign.
fn percentages(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for (end, _) in text.match_indices('%') {
        let mut start = end;
        while start > 0 && (bytes[start - 1].is_ascii_digit() || bytes[start - 1] == b'.') {
            start -= 1;
        }
        let number = text[start..end].trim_start_matches('.');
        if number.bytes().any(|b| b.is_ascii_digit()) {
            out.push(&text[end - number.len()..=end]);
        }
    }
    out
}

#[test]
fn exhibit_scanners_split_blocks_and_find_figures() {
    let text = "*Measured* (`results/fig6_ipc_epc.txt`): 6.0% (max 12.3%)\n\
                vs the paper's ~2%; 0–4% band.\n\
                \n\
                * **A** (`results/a.txt`): 7.3%\n\
                  to 2.3%.\n\
                * **B** (`results/BENCH_load.json`, `results/b.txt`).\n";
    let b = blocks(text);
    assert_eq!(b.len(), 3, "{b:?}");
    assert_eq!(
        exhibit_citations(&b[0]).into_iter().collect::<Vec<_>>(),
        vec!["fig6_ipc_epc.txt"]
    );
    assert_eq!(percentages(&b[0]), vec!["6.0%", "12.3%", "2%", "4%"]);
    assert_eq!(percentages(&b[1]), vec!["7.3%", "2.3%"]);
    assert_eq!(
        exhibit_citations(&b[2]).into_iter().collect::<Vec<_>>(),
        vec!["b.txt"]
    );
    assert!(percentages("100%, .5%, 5.%").contains(&"100%"));
    assert!(percentages("a % sign").is_empty());
}

#[test]
fn experiments_quotes_its_exhibits_verbatim() {
    let root = workspace_root();
    let (mut checked, mut missing) = (0, Vec::new());
    for doc in ["EXPERIMENTS.md", "README.md"] {
        let text =
            std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("read {doc}: {e}"));
        for block in blocks(&text) {
            let cited = exhibit_citations(&block);
            let [name] = cited.iter().collect::<Vec<_>>()[..] else {
                continue;
            };
            let path = root.join("results").join(name);
            let exhibit = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{doc} cites results/{name}: {e}"));
            let printed: BTreeSet<&str> = percentages(&exhibit).into_iter().collect();
            for figure in percentages(&block) {
                checked += 1;
                if !printed.contains(figure) {
                    missing.push(format!("{doc}: {figure} (results/{name})"));
                }
            }
        }
    }
    assert!(
        checked > 0,
        "no quoted exhibit figures found — scan broken?"
    );
    assert!(
        missing.is_empty(),
        "the docs quote figures their cited exhibit does not print: {} — \
         requote them from the file, or move a paper figure into the \
         *Paper:* paragraph",
        missing.join(", ")
    );
}
