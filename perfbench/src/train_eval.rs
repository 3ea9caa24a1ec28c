//! `train-eval`: train the full system on the default (~1.66k-notebook)
//! corpus, then run every golden-table evaluator on the held-out split.

use crate::layers::{self, ratio, Window};
use crate::pass::Pass;
use crate::stats::Tracer;
use autosuggest_bench::tables::{ReproContext, TableRow, GOLDEN_TABLES};
use autosuggest_core::AutoSuggestConfig;
use autosuggest_corpus::{CorpusConfig, CorpusGenerator};

/// Set-up repetitions: each generates the pass's input corpus once.
const SETUP_REPS: usize = 3;

/// The tables whose "Auto-Suggest" row, first column, is a headline
/// quality figure: (table, metric name).
const QUALITY: [(&str, &str); 5] = [
    ("table3", "join_prec1"),
    ("table6", "groupby_prec1"),
    ("table8", "pivot_full_acc"),
    ("table9", "unpivot_full_acc"),
    ("table11", "nextop_prec1"),
];

fn config(seed: u64) -> AutoSuggestConfig {
    AutoSuggestConfig {
        corpus: CorpusConfig {
            seed,
            ..CorpusConfig::default()
        },
        ..AutoSuggestConfig::default()
    }
}

/// Which layer a `train_timed` stage belongs to.
fn stage_layer(stage: &str) -> &'static str {
    match stage {
        "generate_corpus" => "corpus",
        "replay" => "replay",
        _ => "core",
    }
}

pub fn pass(seed: u64, trace: bool) -> Pass {
    let mut out = Pass::default();
    let mut tr = Tracer::new();
    let root = tr.open_span("train-eval", "bench");

    for _ in 0..SETUP_REPS {
        let (corpus, secs) = tr.time("CorpusGenerator::generate", "corpus", || {
            CorpusGenerator::new(config(seed).corpus).generate()
        });
        std::hint::black_box(&corpus);
        out.setup_s.push(secs);
    }

    let window = trace.then(Window::open);
    let train = tr.open_span("ReproContext::build_timed", "core");
    let (ctx, stages) = ReproContext::build_timed(config(seed));
    let train_s = tr.close_span(train);
    // The returned stage timings are consecutive, from the start of the call.
    let mut at = tr.span(train).start;
    for st in &stages {
        tr.record(st.stage, stage_layer(st.stage), train, at, at + st.seconds);
        at += st.seconds;
    }

    let eval = tr.open_span("evaluate", "bench");
    let mut tables: Vec<(&str, Vec<TableRow>, f64)> = Vec::new();
    for (name, rows) in GOLDEN_TABLES {
        let (rows, secs) = tr.time(name, "eval", || rows(&ctx));
        tables.push((name, rows, secs));
    }
    let eval_s = tr.close_span(eval);
    let delta = window.map(Window::close);
    out.record_peak_rss();

    let system = &ctx.system;
    let models = &system.models;
    let families = [
        ("join", models.join.is_some()),
        ("join_type", models.join_type.is_some()),
        ("groupby", models.groupby.is_some()),
        ("pivot", models.pivot.is_some()),
        ("unpivot", models.unpivot.is_some()),
    ];
    for (family, present) in families {
        out.check(present, || format!("model family {family} was not trained"));
    }
    let held_out = [
        ("join", system.test.join.len()),
        ("groupby", system.test.groupby.len()),
        ("pivot", system.test.pivot.len()),
        ("melt", system.test.melt.len()),
        ("nextop", system.test.nextop.len()),
    ];
    for (set, len) in held_out {
        out.check(len > 0, || format!("held-out {set} set is empty"));
    }
    let mut quality = Vec::new();
    for (table, metric) in QUALITY {
        let value = tables
            .iter()
            .find(|(name, _, _)| *name == table)
            .and_then(|(_, rows, _)| rows.iter().find(|r| r.method == "Auto-Suggest"))
            .and_then(|row| row.values.first().copied())
            .unwrap_or(f64::NAN);
        out.check(value.is_finite() && (0.0..=1.0).contains(&value), || {
            format!("{metric} = {value} is not a finite value in [0, 1]")
        });
        quality.push((metric, value));
    }

    let notebooks = system.reports.len() as f64;
    out.op_ms.push((train_s + eval_s) * 1e3);
    out.items = notebooks;
    out.work_s = train_s + eval_s;
    out.quality = quality.iter().map(|(_, v)| v).sum::<f64>() / quality.len() as f64;
    out.overhead_basis_ms = train_s * 1e3;
    out.report("train_s", train_s, "s");
    out.report("eval_s", eval_s, "s");
    for (metric, value) in &quality {
        out.report(metric, *value, "ratio");
    }
    out.report("notebooks", notebooks, "count");

    if let Some(d) = delta {
        let l = &mut out.layers;
        let stage = |name: &str| {
            stages
                .iter()
                .filter(|s| s.stage == name)
                .map(|s| s.seconds)
                .sum::<f64>()
        };
        l.insert("corpus.generate_s".into(), stage("generate_corpus"));
        l.insert(
            "corpus.notebooks_generated".into(),
            d.counter("corpus.notebooks_generated"),
        );
        d.replay(l);
        let ok = system
            .reports
            .iter()
            .filter(|r| r.outcome == autosuggest_corpus::ReplayOutcome::Success)
            .count();
        l.insert("replay.ok_ratio".into(), ratio(ok as f64, notebooks));
        let rnn_s = d.hist_sum("nextop.rnn_train_seconds");
        l.insert("core.filter_split_s".into(), stage("filter_and_split"));
        l.insert("core.train_predictors_s".into(), stage("train_predictors"));
        l.insert("core.train_nextop_s".into(), stage("train_nextop"));
        l.insert(
            "core.nextop_scoring_s".into(),
            stage("train_nextop") - rnn_s,
        );
        d.featurisation(l);
        let scan_s = d.hist_sum("gbdt.split_scan_seconds");
        let nodes = d.counter("gbdt.nodes_split");
        l.insert("gbdt.fit_s".into(), d.hist_sum("gbdt.fit_seconds"));
        l.insert("gbdt.split_scan_s".into(), scan_s);
        l.insert("gbdt.fits".into(), d.hist_count("gbdt.fit_seconds"));
        l.insert("gbdt.nodes_split".into(), nodes);
        l.insert("gbdt.ns_per_node".into(), ratio(scan_s * 1e9, nodes));
        let examples = d.counter("nn.rnn.examples_trained");
        l.insert("nn.rnn_train_s".into(), rnn_s);
        l.insert("nn.examples_trained".into(), examples);
        l.insert("nn.us_per_example".into(), ratio(rnn_s * 1e6, examples));
        for (name, _, secs) in &tables {
            l.insert(format!("eval.{name}_s"), *secs);
        }
    }
    tr.close_span(root);
    if trace {
        layers::self_times(&tr, root, &mut out.layers);
    }
    out
}
