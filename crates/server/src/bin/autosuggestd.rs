//! The `autosuggestd` binary: train a model, bind, serve until shutdown.
//!
//! ```text
//! autosuggestd [--addr HOST:PORT] [--seed N] [--queue-capacity N]
//!              [--max-batch N] [--batch-window-ms N]
//! ```
//!
//! Environment: `AUTOSUGGEST_THREADS` sizes the suggest pool,
//! `AUTOSUGGEST_FAULTS` enables per-request fault injection
//! (testing only). Stop with `POST /admin/shutdown`.

use autosuggest_core::model_slot::ModelSlot;
use autosuggest_core::pipeline::{AutoSuggest, AutoSuggestConfig};
use autosuggest_server::ServerConfig;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    seed: u64,
    /// Starts from `ServerConfig::default()`, so flags left unset keep the
    /// library's defaults.
    config: ServerConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        config: ServerConfig { addr: "127.0.0.1:7878".to_string(), ..Default::default() },
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
            "--queue-capacity" => {
                args.config.queue_capacity = value("--queue-capacity")?
                    .parse()
                    .map_err(|e| format!("--queue-capacity: {e}"))?;
            }
            "--max-batch" => {
                args.config.max_batch = value("--max-batch")?
                    .parse()
                    .map_err(|e| format!("--max-batch: {e}"))?;
            }
            "--batch-window-ms" => {
                let ms = value("--batch-window-ms")?
                    .parse()
                    .map_err(|e| format!("--batch-window-ms: {e}"))?;
                args.config.batch_window = Duration::from_millis(ms);
            }
            "--help" | "-h" => {
                return Err("usage: autosuggestd [--addr HOST:PORT] [--seed N] \
                            [--queue-capacity N] [--max-batch N] [--batch-window-ms N]"
                    .to_string());
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
