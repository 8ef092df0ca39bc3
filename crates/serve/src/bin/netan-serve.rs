//! The screening service daemon.
//!
//! ```text
//! netan-serve [--addr HOST:PORT] [--workers N] [--queue SHARDS]
//!             [--state-dir DIR]
//! ```
//!
//! Binds the address (default `127.0.0.1:7411`; port `0` picks a free
//! port, printed on startup), serves `netan.job.v1` jobs until a client
//! sends a `shutdown` frame, then drains in-flight shards and exits.
//! See `examples/screening_client.rs` for the matching client.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use netan_serve::{JobServer, ServiceConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    match run(std::env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("netan-serve: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let mut addr = String::from("127.0.0.1:7411");
    let mut workers: usize = 2;
    let mut queue: usize = 64;
    let mut state_dir: Option<String> = None;

    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--addr" => addr = value("--addr")?,
            "--workers" => workers = parse(&value("--workers")?, "--workers")?,
            "--queue" => queue = parse(&value("--queue")?, "--queue")?,
            "--state-dir" => state_dir = Some(value("--state-dir")?),
            "--help" | "-h" => {
                println!(
                    "usage: netan-serve [--addr HOST:PORT] [--workers N] \
                     [--queue SHARDS] [--state-dir DIR]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }

    let mut config = ServiceConfig::new()
        .with_workers(workers)
        .with_queue_capacity(queue);
    if let Some(dir) = state_dir {
        config = config.with_state_dir(dir);
    }

    let server = JobServer::start(addr.as_str(), config)
        .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    println!(
        "netan-serve listening on {} ({workers} workers, queue {queue})",
        server.addr()
    );
    server.wait();
    println!("netan-serve: drained and shut down");
    Ok(())
}

fn parse(text: &str, name: &str) -> Result<usize, String> {
    text.parse()
        .map_err(|_| format!("{name} needs an unsigned integer, got {text:?}"))
}
