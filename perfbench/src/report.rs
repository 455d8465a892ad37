//! Metrics, the host header, and the result line.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (design points, programs, requests, checks).
    pub attempted: u64,
    /// Operations that failed: errors, lost or duplicated acks, and
    /// output mismatches against pinned digests or direct library calls.
    pub failed: u64,
    /// The benchmark's end-to-end metrics (the result line without
    /// `--trace`).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (the result line with `--trace 1`).
    pub layers: Vec<Metric>,
    /// The workload's own end-to-end metrics under the names the notes
    /// use (`points_per_s`, `study_s`, `rps_at_slo`, …) and other
    /// figures that are printed but not part of the result line.
    pub detail: Vec<Metric>,
    /// Free-form report lines (tables, verdicts, failures).
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(metric(name, value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(metric(name, value, unit));
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.detail.push(metric(name, value, unit));
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Records one output check; a mismatch is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.lines.push(format!("MISMATCH: {}", what()));
        }
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    debug_assert!(
        valid_name(name) && valid_unit(unit),
        "bad metric {name:?} [{unit}]"
    );
    Metric {
        name: name.to_string(),
        // `+ 0.0` turns a negative zero into zero.
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
        unit,
    }
}

/// Metric names are `[A-Za-z0-9_.-]+`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units are short and drawn from `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The facts that make a number comparable to another: never compare
/// results whose headers differ without saying so.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub available_parallelism: usize,
    pub threads: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
    pub seed: u64,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    // Git must not look for a repository above the working directory:
    // outside a clone the commit is simply unknown.
    let cwd = std::env::current_dir().ok()?;
    let out = std::process::Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (out.status.success() && !s.is_empty()).then_some(s)
}

impl Host {
    pub fn probe(threads: usize, seed: u64) -> Host {
        let available_parallelism = ssim_par::available_parallelism();
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string());
        Host {
            nproc: command_line("nproc", &[])
                .and_then(|s| s.parse().ok())
                .unwrap_or(available_parallelism),
            available_parallelism,
            threads,
            cpu_model,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
            git_commit: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".to_string()),
            seed,
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"available_parallelism\": {}, \"threads\": {}, \"cpu_model\": {}, \
             \"rustc\": {}, \"git_commit\": {}, \"seed\": {}}}",
            self.nproc,
            self.available_parallelism,
            self.threads,
            json_str(&self.cpu_model),
            json_str(&self.rustc),
            json_str(&self.git_commit),
            self.seed
        )
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, …}`
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics_json(metrics)
    )
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints metrics as an aligned table.
pub fn print_table(title: &str, metrics: &[Metric]) {
    if metrics.is_empty() {
        return;
    }
    println!("{title}");
    for m in metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_are_checked() {
        assert!(valid_name("tracesim.us_per_point.ruu8"));
        assert!(valid_name("accuracy.ipc_err_pct.bzip2"));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
        assert!(valid_unit("Minstr/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
    }

    #[test]
    fn result_line_shape() {
        let m = [metric("setup_s", 0.5, "s")];
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
