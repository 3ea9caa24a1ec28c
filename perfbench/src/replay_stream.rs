//! `replay-stream`: streamed replay of a ~10k-notebook corpus at the
//! default archetype mix (planted failures included) into a fresh sample
//! store, then a full read-back through the store.

use crate::layers::{self, ratio, Window};
use crate::pass::Pass;
use crate::stats::Tracer;
use autosuggest_corpus::{
    replay_corpus_streamed, scan_scenario_stats, CorpusConfig, CorpusGenerator, StreamConfig,
};
use std::path::Path;

/// Requested corpus size (join twins come on top).
const NOTEBOOKS: usize = 10_000;
/// Set-up: a warm-up streamed replay of this many notebooks, repeated.
const WARMUP_NOTEBOOKS: usize = 400;
const SETUP_REPS: usize = 3;

/// Run `f` on the fresh directory `dir`, removing it afterwards whatever
/// happens. A reused store would resume from its manifest and replay
/// nothing.
fn with_fresh_dir<T>(dir: &Path, f: impl FnOnce(&Path) -> T) -> T {
    let _ = std::fs::remove_dir_all(dir);
    let out = f(dir);
    let _ = std::fs::remove_dir_all(dir);
    out
}

pub fn pass(seed: u64, trace: bool, scratch: &Path) -> Pass {
    let mut out = Pass::default();
    let mut tr = Tracer::new();
    let root = tr.open_span("replay-stream", "bench");
    let opts = StreamConfig::default();

    let warmup = CorpusConfig::scaled_to(seed, WARMUP_NOTEBOOKS);
    for rep in 0..SETUP_REPS {
        let dir = scratch.join(format!("warmup-{rep}"));
        let (result, secs) = tr.time("warm-up replay", "stream", || {
            with_fresh_dir(&dir, |d| {
                replay_corpus_streamed(&warmup, None, d, &opts).map(|(_, s)| s.notebooks)
            })
        });
        out.check(result.is_ok(), || {
            format!("warm-up replay failed: {result:?}")
        });
        out.setup_s.push(secs);
    }

    let cfg = CorpusConfig::scaled_to(seed, NOTEBOOKS);
    let dir = scratch.join("store");
    let (result, work_s, delta) = with_fresh_dir(&dir, |d| {
        let window = trace.then(Window::open);
        let work = tr.open_span("replay + read-back", "bench");
        let (replayed, replay_s) = tr.time("replay_corpus_streamed", "stream", || {
            replay_corpus_streamed(&cfg, None, d, &opts)
        });
        let result = replayed.and_then(|(store, summary)| {
            let (stats, read_s) = tr.time("scan_scenario_stats", "store", || {
                scan_scenario_stats(&store)
            });
            Ok((summary, stats?, replay_s, read_s))
        });
        (result, tr.close_span(work), window.map(Window::close))
    });
    out.record_peak_rss();

    let (summary, stats, replay_s, read_s) = match result {
        Ok(r) => r,
        Err(e) => {
            out.check(false, || format!("streamed replay failed: {e}"));
            return out;
        }
    };
    let read_back: usize = stats.values().map(|s| s.notebooks).sum();
    let invocations: usize = stats.values().map(|s| s.invocations).sum();
    let replayed_ok: usize = stats.values().map(|s| s.replayed_ok).sum();
    out.check(read_back == summary.notebooks, || {
        format!(
            "read back {read_back} reports, replay wrote {}",
            summary.notebooks
        )
    });
    out.check(invocations == summary.invocations, || {
        format!(
            "per-scenario invocations sum to {invocations}, replay logged {}",
            summary.invocations
        )
    });
    out.check(summary.shards_resumed == 0, || {
        format!(
            "{} shards resumed from a previous store",
            summary.shards_resumed
        )
    });

    let notebooks = summary.notebooks as f64;
    out.op_ms.push(work_s * 1e3);
    out.items = notebooks;
    out.work_s = work_s;
    out.quality = ratio(replayed_ok as f64, notebooks);
    out.overhead_basis_ms = work_s * 1e3;
    out.report("replay_notebooks_per_s", ratio(notebooks, work_s), "1/s");
    out.report("replay_s", replay_s, "s");
    out.report("read_back_s", read_s, "s");
    out.report("notebooks", notebooks, "count");

    if let Some(d) = delta {
        let l = &mut out.layers;
        d.replay(l);
        l.insert("replay.ok_ratio".into(), out.quality);
        l.insert("store.write_s".into(), d.span_busy_s("store_write"));
        l.insert("store.read_s".into(), read_s);
        let bytes = d.counter("store.bytes_written");
        l.insert("store.bytes_written".into(), bytes);
        l.insert("store.bytes_per_notebook".into(), ratio(bytes, notebooks));
        l.insert("store.shards_resumed".into(), summary.shards_resumed as f64);
        d.featurisation(l);

        // Generation runs inside the streamed replay, where it cannot be
        // timed from outside; time the same corpus's generation on its own.
        let gen = Window::open();
        let (corpus, secs) = tr.time("CorpusGenerator::generate", "corpus", || {
            CorpusGenerator::new(cfg.clone()).generate()
        });
        drop(corpus);
        l.insert("corpus.generate_s".into(), secs);
        l.insert(
            "corpus.notebooks_generated".into(),
            gen.close().counter("corpus.notebooks_generated"),
        );
    }
    tr.close_span(root);
    if trace {
        layers::self_times(&tr, root, &mut out.layers);
    }
    out
}
