//! The streamed-replay contract: replaying a corpus shard-by-shard through
//! the disk-backed [`SampleStore`] must be **byte-identical** to the
//! in-memory `replay_corpus` sweep — same reports in the same order, same
//! robustness accounting — at any shard size, across kill/resume cycles,
//! after shard corruption, and with fault injection active.

use auto_suggest::corpus::durable::fnv64;
use auto_suggest::corpus::stream::render_scenario_stats;
use auto_suggest::corpus::{
    replay_corpus_streamed, scan_scenario_stats, CorpusConfig, CorpusGenerator, FaultSpec,
    ReplayEngine, ReplayReport, RobustnessStats, StreamConfig,
};
use auto_suggest::obs::{self, MetricsSnapshot};
use std::path::PathBuf;

/// A corpus small enough to replay several times in one test binary.
fn tiny_corpus(seed: u64) -> CorpusConfig {
    CorpusConfig {
        join_notebooks: 10,
        groupby_notebooks: 8,
        pivot_notebooks: 6,
        unpivot_notebooks: 4,
        json_notebooks: 3,
        flow_notebooks: 10,
        ..CorpusConfig::small(seed)
    }
}

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("autosuggest-stream-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The in-memory baseline: full generation, one `replay_corpus` sweep.
fn in_memory_replay(
    cfg: &CorpusConfig,
    faults: Option<FaultSpec>,
) -> (Vec<ReplayReport>, RobustnessStats) {
    let corpus = CorpusGenerator::new(cfg.clone()).generate();
    let engine = ReplayEngine::new(corpus.repository).with_faults(faults);
    engine.replay_corpus(&corpus.notebooks)
}

/// Debug renderings are the strictest practical equality for reports
/// (every field, including nested flow graphs and fault labels).
fn render_reports(reports: &[ReplayReport]) -> Vec<String> {
    reports.iter().map(|r| format!("{r:?}")).collect()
}

/// A counter from a local-registry snapshot (0 when never recorded).
fn counter(snap: &MetricsSnapshot, name: &str) -> usize {
    snap.counters.get(name).copied().unwrap_or(0) as usize
}

fn streamed_reports(store: &auto_suggest::corpus::SampleStore) -> Vec<ReplayReport> {
    store.reports().collect::<std::io::Result<Vec<_>>>().expect("stream reports")
}

#[test]
fn streamed_replay_is_byte_identical_to_in_memory_at_any_shard_size() {
    let cfg = tiny_corpus(11);
    let (baseline_reports, baseline_stats) = in_memory_replay(&cfg, None);
    assert!(!baseline_reports.is_empty());

    for shard_size in [3usize, 7, 1000] {
        let dir = store_dir(&format!("shardsize-{shard_size}"));
        let (store, summary) = replay_corpus_streamed(
            &cfg,
            None,
            &dir,
            &StreamConfig { shard_size, ..Default::default() },
        )
        .expect("streamed replay");
        assert!(store.all_complete());
        assert!(!summary.aborted);
        assert_eq!(summary.shards_resumed, 0, "fresh store cannot resume");
        assert_eq!(summary.notebooks, baseline_reports.len());
        assert_eq!(
            render_reports(&streamed_reports(&store)),
            render_reports(&baseline_reports),
            "shard size {shard_size}: streamed reports diverged from in-memory replay"
        );
        assert_eq!(
            summary.stats, baseline_stats,
            "shard size {shard_size}: robustness accounting diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn killed_run_resumes_from_manifest_without_re_replaying() {
    let cfg = tiny_corpus(23);
    let dir = store_dir("resume");
    let shard = StreamConfig { shard_size: 5, ..Default::default() };

    // First run dies after 2 shards (simulated kill).
    let ((_store, partial), snap) = obs::with_local_registry(|| {
        replay_corpus_streamed(
            &cfg,
            None,
            &dir,
            &StreamConfig { abort_after_shards: Some(2), ..shard.clone() },
        )
        .expect("aborted run")
    });
    assert!(partial.aborted);
    assert_eq!(partial.shards_replayed, 2);
    assert!(partial.total_shards > 2, "corpus must span more than 2 shards");
    // The trace counters `repro --corpus-scale --trace` exposes agree.
    assert_eq!(counter(&snap, "stream.shards_replayed"), partial.shards_replayed);
    assert_eq!(counter(&snap, "store.shards_resumed"), partial.shards_resumed);

    // Second run resumes: exactly the 2 completed shards are reused.
    let ((store, resumed), snap) = obs::with_local_registry(|| {
        replay_corpus_streamed(&cfg, None, &dir, &shard).expect("resumed run")
    });
    assert!(!resumed.aborted);
    assert_eq!(resumed.shards_resumed, 2, "manifest shards must be reused");
    assert_eq!(resumed.shards_replayed, resumed.total_shards - 2);
    assert!(store.all_complete());
    assert_eq!(counter(&snap, "stream.shards_replayed"), resumed.shards_replayed);
    assert_eq!(counter(&snap, "store.shards_resumed"), resumed.shards_resumed);

    // And the result is indistinguishable from never having been killed.
    let (baseline_reports, baseline_stats) = in_memory_replay(&cfg, None);
    assert_eq!(render_reports(&streamed_reports(&store)), render_reports(&baseline_reports));
    assert_eq!(resumed.stats, baseline_stats);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_shard_is_re_replayed_not_trusted() {
    let cfg = tiny_corpus(31);
    let dir = store_dir("corrupt");
    let shard = StreamConfig { shard_size: 5, ..Default::default() };
    let (_store, first) = replay_corpus_streamed(&cfg, None, &dir, &shard).expect("first run");
    assert!(first.shards_replayed >= 2);

    // Flip one byte in the middle of shard 1's payload.
    let victim = dir.join("shards").join("shard-00001.asg");
    let mut bytes = std::fs::read(&victim).expect("read shard");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&victim, &bytes).expect("corrupt shard");

    let ((store, second), snap) = obs::with_local_registry(|| {
        replay_corpus_streamed(&cfg, None, &dir, &shard).expect("second run")
    });
    assert_eq!(second.shards_replayed, 1, "exactly the corrupted shard re-replays");
    assert_eq!(second.shards_resumed, second.total_shards - 1);
    assert_eq!(counter(&snap, "stream.shards_replayed"), second.shards_replayed);
    assert_eq!(counter(&snap, "store.shards_resumed"), second.shards_resumed);

    let (baseline_reports, baseline_stats) = in_memory_replay(&cfg, None);
    assert_eq!(render_reports(&streamed_reports(&store)), render_reports(&baseline_reports));
    assert_eq!(second.stats, baseline_stats);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_of_another_format_version_is_re_replayed() {
    let cfg = tiny_corpus(37);
    let dir = store_dir("version");
    let shard = StreamConfig { shard_size: 5, ..Default::default() };
    let (store, first) = replay_corpus_streamed(&cfg, None, &dir, &shard).expect("first run");
    assert!(first.shards_replayed >= 2);
    let table = render_scenario_stats(&scan_scenario_stats(&store).expect("scan"));

    // Rewrite shard 1 as a valid file of another format version (the u16
    // after the 4-byte magic) and list it in the manifest under its new
    // checksum, as a store written by another build would be.
    let victim = dir.join("shards").join("shard-00001.asg");
    let mut bytes = std::fs::read(&victim).expect("read shard");
    let listed = format!("\"file_fnv\":{}", fnv64(&bytes));
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    bytes[4..6].copy_from_slice(&version.wrapping_add(1).to_le_bytes());
    std::fs::write(&victim, &bytes).expect("rewrite shard");
    let manifest_path = dir.join("manifest.json");
    let manifest = std::fs::read_to_string(&manifest_path).expect("read manifest");
    assert_eq!(manifest.matches(&listed).count(), 1, "{manifest}");
    let relisted = manifest.replace(&listed, &format!("\"file_fnv\":{}", fnv64(&bytes)));
    std::fs::write(&manifest_path, relisted).expect("rewrite manifest");

    let (store, second) = replay_corpus_streamed(&cfg, None, &dir, &shard).expect("second run");
    assert_eq!(second.shards_replayed, 1, "exactly the other-version shard re-replays");
    assert_eq!(second.shards_resumed, second.total_shards - 1);
    assert_eq!(render_scenario_stats(&scan_scenario_stats(&store).expect("rescan")), table);
    assert_eq!(second.stats, first.stats);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_injected_streamed_replay_matches_in_memory() {
    let cfg = tiny_corpus(47);
    let faults = FaultSpec::parse("seed=3;transient=0.6;io=0.4;panic=0.15;package=0.3")
        .expect("valid fault spec");
    let (baseline_reports, baseline_stats) = in_memory_replay(&cfg, Some(faults.clone()));
    assert!(
        baseline_stats.total_injected() > 0,
        "fault spec must actually fire for this test to mean anything"
    );

    let dir = store_dir("faulted");
    let (store, summary) = replay_corpus_streamed(
        &cfg,
        Some(faults),
        &dir,
        &StreamConfig { shard_size: 6, ..Default::default() },
    )
    .expect("faulted streamed replay");
    assert_eq!(
        render_reports(&streamed_reports(&store)),
        render_reports(&baseline_reports),
        "fault injection must be shard-invariant (notebook-indexed, not stream-indexed)"
    );
    assert_eq!(summary.stats, baseline_stats);
    let _ = std::fs::remove_dir_all(&dir);
}
