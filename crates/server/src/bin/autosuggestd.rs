//! The `autosuggestd` binary: train a model, bind, serve until shutdown.
//!
//! ```text
//! autosuggestd [--addr HOST:PORT] [--seed N] [--max-connections N]
//! ```
//!
//! Environment: `AUTOSUGGEST_THREADS` sizes the suggest pool and with it
//! how many requests compute at once; `AUTOSUGGEST_FAULTS` enables
//! per-request fault injection (testing only; the model itself trains
//! without faults). Stop with `POST /admin/shutdown`.

use autosuggest_core::model_slot::ModelSlot;
use autosuggest_core::pipeline::{AutoSuggest, AutoSuggestConfig};
use autosuggest_corpus::FaultSpec;
use autosuggest_server::ServerConfig;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    seed: u64,
    /// Starts from `ServerConfig::default()`, so flags left unset keep the
    /// library's defaults.
    config: ServerConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        config: ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            faults: FaultSpec::from_env(),
            ..Default::default()
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => args.config.addr = value("--addr")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--max-connections" => {
                args.config.max_connections = value("--max-connections")?
                    .parse()
                    .map_err(|e| format!("--max-connections: {e}"))?;
            }
            "--help" | "-h" => {
                return Err(
                    "usage: autosuggestd [--addr HOST:PORT] [--seed N] [--max-connections N]"
                        .to_string(),
                );
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!("autosuggestd: training model (seed {}, fast profile)...", args.seed);
    let started = Instant::now();
    let system = AutoSuggest::train(AutoSuggestConfig::fast(args.seed));
    eprintln!(
        "autosuggestd: model trained in {:.1}s",
        started.elapsed().as_secs_f64()
    );

    let slot = Arc::new(ModelSlot::new(system));
    let server = match autosuggest_server::serve(slot, args.config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("autosuggestd: failed to bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The listening line goes to stdout so scripts can scrape the port.
    println!("autosuggestd listening on {} (model version 1)", server.addr());
    match server.wait() {
        Ok(()) => {
            eprintln!("autosuggestd: shut down cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("autosuggestd: {e}");
            ExitCode::FAILURE
        }
    }
}
