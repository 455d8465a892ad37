//! The `ssim-serve` binary: run the experiment service or its gateway,
//! or talk to either.
//!
//! ```text
//! ssim-serve serve [--addr A] [--workers N] [--queue N] [--deadline-ms N]
//!                  [--journal <path>] [--port-file <path>]
//! ssim-serve gateway [--addr A] [--port-file <path>] [--workers N]
//!                    [--queue N] <backend>...
//! ssim-serve client <addr> (<request-json> | metrics | shutdown)
//! ssim-serve submit <addr> <file.asm> [--instructions N] [--skip N]
//! ```
//!
//! `--port-file` writes the resolved address (for `--addr host:0`)
//! atomically once the server is listening — the hand-off `ci.sh load`
//! and the binary-level tests use to find their children.

use ssim_serve::json::Json;
use ssim_serve::{Client, Gateway, GatewayConfig, Request, Server, ServerConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("gateway") => cmd_gateway(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        _ => {
            eprintln!(
                "usage: ssim-serve serve [--addr A] [--workers N] [--queue N] [--deadline-ms N] \
                 [--journal P] [--port-file P]\n\
                 \x20      ssim-serve gateway [--addr A] [--port-file P] \
                 [--workers N] [--queue N] <backend>...\n\
                 \x20      ssim-serve client <addr> (<request-json> | metrics | shutdown)\n\
                 \x20      ssim-serve submit <addr> <file.asm> [--instructions N] [--skip N]"
            );
            2
        }
    };
    std::process::exit(code);
}

/// Publishes the resolved listen address atomically (write a temp file,
/// rename over the target), so a parent polling the path never reads a
/// half-written line.
fn write_port_file(path: &str, addr: &std::net::SocketAddr) -> std::io::Result<()> {
    let target = std::path::Path::new(path);
    let tmp = target.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, format!("{addr}\n"))?;
    std::fs::rename(&tmp, target)
}

// ---- serve ----------------------------------------------------------

fn cmd_serve(args: &[String]) -> i32 {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7807".to_string(),
        ..ServerConfig::default()
    };
    let mut port_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("flag {flag} needs a value");
            return 2;
        };
        let parsed = match flag.as_str() {
            "--addr" => {
                cfg.addr = value.clone();
                Ok(())
            }
            "--workers" => value.parse().map(|n| cfg.workers = n).map_err(|_| ()),
            "--queue" => value
                .parse()
                .map(|n| cfg.queue_capacity = n)
                .map_err(|_| ()),
            "--deadline-ms" => value
                .parse()
                .map(|n| cfg.default_deadline_ms = n)
                .map_err(|_| ()),
            "--journal" => {
                cfg.journal = Some(std::path::PathBuf::from(value));
                Ok(())
            }
            "--port-file" => {
                port_file = Some(value.clone());
                Ok(())
            }
            other => {
                eprintln!("unknown flag {other}");
                return 2;
            }
        };
        if parsed.is_err() {
            eprintln!("bad value for {flag}: {value}");
            return 2;
        }
    }
    match Server::start(cfg) {
        Ok(server) => {
            println!("ssim-serve listening on {}", server.addr());
            if let Some(path) = port_file {
                if let Err(e) = write_port_file(&path, &server.addr()) {
                    eprintln!("failed to write port file {path}: {e}");
                    return 1;
                }
            }
            server.join();
            println!("ssim-serve drained and stopped");
            0
        }
        Err(e) => {
            eprintln!("failed to start server: {e}");
            1
        }
    }
}

// ---- gateway --------------------------------------------------------

fn cmd_gateway(args: &[String]) -> i32 {
    let mut cfg = GatewayConfig {
        addr: "127.0.0.1:7808".to_string(),
        ..GatewayConfig::default()
    };
    let mut port_file: Option<String> = None;
    let mut backends = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            backends.push(arg.clone());
            continue;
        }
        let Some(value) = it.next() else {
            eprintln!("flag {arg} needs a value");
            return 2;
        };
        let parsed = match arg.as_str() {
            "--addr" => {
                cfg.addr = value.clone();
                Ok(())
            }
            "--port-file" => {
                port_file = Some(value.clone());
                Ok(())
            }
            "--workers" => value.parse().map(|n| cfg.workers = n).map_err(|_| ()),
            "--queue" => value
                .parse()
                .map(|n| cfg.queue_capacity = n)
                .map_err(|_| ()),
            other => {
                eprintln!("unknown flag {other}");
                return 2;
            }
        };
        if parsed.is_err() {
            eprintln!("bad value for {arg}: {value}");
            return 2;
        }
    }
    if backends.is_empty() {
        eprintln!("gateway needs at least one backend address");
        return 2;
    }
    cfg.backends = backends;
    match Gateway::start(cfg) {
        Ok(gw) => {
            println!("ssim-gateway listening on {}", gw.addr());
            if let Some(path) = port_file {
                if let Err(e) = write_port_file(&path, &gw.addr()) {
                    eprintln!("failed to write port file {path}: {e}");
                    return 1;
                }
            }
            gw.join();
            println!("ssim-gateway drained and stopped");
            0
        }
        Err(e) => {
            eprintln!("failed to start gateway: {e}");
            1
        }
    }
}

// ---- client ---------------------------------------------------------

fn cmd_client(args: &[String]) -> i32 {
    let [addr, spec] = args else {
        eprintln!("usage: ssim-serve client <addr> (<request-json> | metrics | shutdown)");
        return 2;
    };
    let line = match spec.as_str() {
        "metrics" => "{\"kind\":\"metrics\"}".to_string(),
        "shutdown" => "{\"kind\":\"shutdown\"}".to_string(),
        json => json.to_string(),
    };
    // Parse through the envelope grammar client-side so typos fail
    // with a local error instead of a round trip. The envelope's
    // `deadline_ms` and `job` travel with the request.
    let body = match Json::parse(&line) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("request is not valid JSON: {e}");
            return 2;
        }
    };
    let env = {
        // Wrap with a throwaway id so Envelope::parse can validate.
        let mut pairs = vec![("id".to_string(), Json::Num(1.0))];
        if let Json::Obj(p) = body {
            pairs.extend(p.into_iter().filter(|(k, _)| k != "id"));
        }
        match ssim_serve::proto::Envelope::parse(&Json::Obj(pairs).render()) {
            Ok(env) => env,
            Err(e) => {
                eprintln!("bad request: {e}");
                return 2;
            }
        }
    };
    let mut client = match Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("connect {addr}: {e}");
            return 1;
        }
    };
    match client.call_job_retry(&env.req, env.deadline_ms, env.job.as_deref(), 10) {
        Ok(resp) => {
            println!("{}", resp.body.render());
            i32::from(!resp.ok)
        }
        Err(e) => {
            eprintln!("request failed: {e}");
            1
        }
    }
}

// ---- submit ---------------------------------------------------------

/// Submits a `.asm` file to a running server and prints the response
/// (registry name, static shape, profile metadata).
fn cmd_submit(args: &[String]) -> i32 {
    let mut instructions = 1_000_000u64;
    let mut skip = 0u64;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--instructions" | "--skip" => {
                let Some(v) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("{arg} needs an integer value");
                    return 2;
                };
                if arg == "--skip" {
                    skip = v;
                } else {
                    instructions = v;
                }
            }
            _ => positional.push(arg.clone()),
        }
    }
    let [addr, file] = positional.as_slice() else {
        eprintln!("usage: ssim-serve submit <addr> <file.asm> [--instructions N] [--skip N]");
        return 2;
    };
    let source = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{file}: {e}");
            return 1;
        }
    };
    let mut client = match Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("connect {addr}: {e}");
            return 1;
        }
    };
    let req = Request::SubmitProgram {
        source,
        instructions,
        skip,
    };
    match client.call_retry(&req, None, 10) {
        Ok(resp) => {
            println!("{}", resp.body.render());
            i32::from(!resp.ok)
        }
        Err(e) => {
            eprintln!("submit failed: {e}");
            1
        }
    }
}
