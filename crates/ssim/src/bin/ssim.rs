//! `ssim` — command-line front end for the statistical-simulation
//! framework.
//!
//! ```text
//! ssim list
//! ssim profile <workload> -o out.ssimprf [--k N] [--instr N] [--skip N] [--anti-deps]
//! ssim info <profile>
//! ssim simulate <profile> [--r N] [--seed N] [--ruu N] [--width N] [--in-order]
//! ssim compare <workload> [--instr N] [--r N]
//! ssim explore <profile> [--ruu 16,32,64,128] [--width 2,4,8]
//! ```

use ssim::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("profile") => cmd_profile(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("explore") => cmd_explore(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try `ssim help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
ssim — statistical simulation for processor design studies

USAGE:
  ssim list                      list the benchmark suite
  ssim profile <workload> -o F   build and save a statistical profile
      [--k N]        SFG order (default 1)
      [--instr N]    instructions to profile (default 3000000)
      [--skip N]     warmup skip (default 4000000)
      [--anti-deps]  record WAW/WAR distances (in-order extension)
  ssim info <profile>            summarise a saved profile
  ssim simulate <profile>        generate + simulate a synthetic trace
      [--r N]        reduction factor (default 15)
      [--seed N]     generation seed (default 1)
      [--ruu N]      window size override
      [--width N]    machine width override
      [--in-order]   in-order issue with WAW/WAR hazards
  ssim compare <workload>        statistical vs execution-driven IPC
      [--instr N]    window length (default 1000000)
      [--r N]        reduction factor (default 15)
  ssim explore <profile>         EDP sweep over RUU x width
      [--ruu A,B,..] window sizes (default 16,32,64,128)
      [--width A,..] widths (default 2,4,8)
";

/// Pulls `--flag value` out of an argument list.
fn opt(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn opt_u64(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    match opt(args, flag)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag} expects a number, got {v:?}")),
    }
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn positional(args: &[String]) -> Result<&str, String> {
    args.first()
        .filter(|a| !a.starts_with('-'))
        .map(String::as_str)
        .ok_or_else(|| "missing positional argument".to_string())
}

fn load_profile(path: &str) -> Result<StatisticalProfile, String> {
    let mut f = std::fs::File::open(path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
    StatisticalProfile::load(&mut f).map_err(|e| format!("cannot load {path:?}: {e}"))
}

fn machine_from(args: &[String]) -> Result<MachineConfig, String> {
    let mut machine = MachineConfig::baseline();
    if let Some(r) = opt(args, "--ruu")? {
        let ruu = r
            .parse()
            .map_err(|_| format!("--ruu expects a number, got {r:?}"))?;
        machine = machine.with_window(ruu);
    }
    if let Some(w) = opt(args, "--width")? {
        let width = w
            .parse()
            .map_err(|_| format!("--width expects a number, got {w:?}"))?;
        machine = machine.with_width(width);
    }
    if has_flag(args, "--in-order") {
        machine = machine.in_order();
    }
    machine.check()?;
    Ok(machine)
}

fn cmd_list() -> Result<(), String> {
    println!("{:<10} {:<14} algorithm", "name", "SPEC analog");
    for w in ssim::workloads::all() {
        println!(
            "{:<10} {:<14} {}",
            w.name(),
            w.spec_analog(),
            w.description()
        );
    }
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    let name = positional(args)?;
    let workload =
        ssim::workloads::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let out = opt(args, "-o")?.ok_or("profile needs -o <file>")?;
    let k = opt_u64(args, "--k", 1)? as usize;
    let instr = opt_u64(args, "--instr", 3_000_000)?;
    let skip = opt_u64(args, "--skip", 4_000_000)?;

    let machine = MachineConfig::baseline();
    let program = workload.program();
    let cfg = ProfileConfig::new(&machine)
        .order(k)
        .skip(skip)
        .instructions(instr)
        .anti_deps(has_flag(args, "--anti-deps"));
    eprintln!("profiling {name} ({instr} instructions, k = {k})...");
    let p = profile(&program, &cfg);
    let mut f = std::fs::File::create(&out).map_err(|e| format!("cannot create {out:?}: {e}"))?;
    p.save(&mut f)
        .map_err(|e| format!("cannot write {out:?}: {e}"))?;
    println!(
        "wrote {out}: {} instructions, {} SFG nodes, {} contexts, MPKI {:.2}",
        p.instructions(),
        p.sfg().node_count(),
        p.context_count(),
        p.branch_mpki()
    );
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let p = load_profile(positional(args)?)?;
    println!("order k:        {}", p.k());
    println!("instructions:   {}", p.instructions());
    println!("SFG nodes:      {}", p.sfg().node_count());
    println!("contexts:       {}", p.context_count());
    println!("branch MPKI:    {:.2}", p.branch_mpki());
    let mut hottest: Vec<_> = p.contexts().collect();
    hottest.sort_by_key(|(_, s)| std::cmp::Reverse(s.occurrence));
    println!("hottest contexts:");
    for (ctx, s) in hottest.iter().take(8) {
        println!(
            "  block@pc{:<8} x{:<9} {} instrs",
            ctx.current(),
            s.occurrence,
            s.slots.len()
        );
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let p = load_profile(positional(args)?)?;
    let r = opt_u64(args, "--r", 15)?;
    let seed = opt_u64(args, "--seed", 1)?;
    let machine = machine_from(args)?;
    let trace = p.generate(r, seed);
    if trace.is_empty() {
        return Err("reduction factor too large: empty synthetic trace".into());
    }
    let res = simulate_trace(&trace, &machine);
    let power = PowerModel::new(&machine).evaluate(&res.activity);
    println!(
        "trace:   {} instructions (R = {r}, seed {seed})",
        trace.len()
    );
    println!("IPC:     {:.3}", res.ipc());
    println!("EPC:     {:.2} W/cycle", power.epc());
    println!("EDP:     {:.3}", power.edp(res.ipc()));
    println!("MPKI:    {:.2}", res.mpki());
    println!(
        "RUU occ: {:.1}   LSQ occ: {:.1}   IFQ occ: {:.1}",
        res.ruu_occupancy, res.lsq_occupancy, res.ifq_occupancy
    );
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let name = positional(args)?;
    let workload =
        ssim::workloads::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let instr = opt_u64(args, "--instr", 1_000_000)?;
    let r = opt_u64(args, "--r", 15)?;
    let machine = MachineConfig::baseline();
    let program = workload.program();

    eprintln!("profiling...");
    let p = profile(
        &program,
        &ProfileConfig::new(&machine)
            .skip(4_000_000)
            .instructions(instr),
    );
    let ss = simulate_trace(&p.generate(r, 1), &machine);
    eprintln!("running the execution-driven reference...");
    let mut sim = ExecSim::new(&machine, &program);
    sim.skip(4_000_000);
    let eds = sim.run(instr);
    println!("{:<14} {:>10} {:>10}", "", "EDS", "statistical");
    println!("{:<14} {:>10.3} {:>10.3}", "IPC", eds.ipc(), ss.ipc());
    println!(
        "{:<14} {:>10} {:>10}  ({:.1}% of the instructions)",
        "simulated",
        eds.instructions,
        ss.instructions,
        100.0 * ss.instructions as f64 / eds.instructions.max(1) as f64
    );
    println!(
        "{:<14} {:>21.1}%",
        "IPC error",
        100.0 * absolute_error(ss.ipc(), eds.ipc())
    );
    Ok(())
}

fn parse_list(spec: &str) -> Result<Vec<usize>, String> {
    spec.split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| format!("bad list element {s:?}"))
        })
        .collect()
}

fn cmd_explore(args: &[String]) -> Result<(), String> {
    let p = load_profile(positional(args)?)?;
    let ruus = parse_list(&opt(args, "--ruu")?.unwrap_or_else(|| "16,32,64,128".into()))?;
    let widths = parse_list(&opt(args, "--width")?.unwrap_or_else(|| "2,4,8".into()))?;
    let mut grid = Vec::new();
    for &ruu in &ruus {
        for &width in &widths {
            let cfg = MachineConfig::baseline().with_window(ruu).with_width(width);
            cfg.check()?;
            grid.push((ruu, width, cfg));
        }
    }
    let trace = p.generate(15, 1);
    if trace.is_empty() {
        return Err("profile too small to generate a trace".into());
    }
    println!(
        "{:>6} {:>6} {:>8} {:>9} {:>9}",
        "RUU", "width", "IPC", "EPC", "EDP"
    );
    let mut best: Option<(f64, usize, usize)> = None;
    for (ruu, width, cfg) in grid {
        let res = simulate_trace(&trace, &cfg);
        let power = PowerModel::new(&cfg).evaluate(&res.activity);
        let edp = power.edp(res.ipc().max(1e-9));
        println!(
            "{:>6} {:>6} {:>8.3} {:>9.2} {:>9.2}",
            ruu,
            width,
            res.ipc(),
            power.epc(),
            edp
        );
        if best.is_none() || edp < best.unwrap().0 {
            best = Some((edp, ruu, width));
        }
    }
    let (edp, ruu, width) = best.ok_or("empty design space")?;
    println!("\nEDP-optimal: RUU {ruu}, width {width} (EDP {edp:.2})");
    Ok(())
}
