//! The directory the sample store owns may be one a user already keeps
//! other files in (`repro --store-dir`). Opening it, fresh or reset under
//! a different corpus, must reclaim only the tmp files an interrupted
//! writer left behind and the store's own shard files, never anything
//! else.

use auto_suggest::corpus::{RobustnessStats, SampleStore};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("autosuggest-foreign-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn foreign_files_survive_store_and_cache_open() {
    let store_root = scratch("store");
    std::fs::create_dir_all(store_root.join("shards")).unwrap();
    let notes = store_root.join("notes.txt");
    let manifest = store_root.join("Cargo.toml");
    let shard_notes = store_root.join("shards").join("notes.txt");
    let orphan = store_root.join("manifest.tmp777-1");
    for f in [&notes, &manifest, &shard_notes, &orphan] {
        std::fs::write(f, b"user data").unwrap();
    }
    let mut store = SampleStore::open(&store_root, "corpus-a", 4, 2).unwrap();
    assert!(notes.exists() && manifest.exists(), "store open deleted a user file");
    assert!(shard_notes.exists(), "fresh store open deleted a user file under shards/");
    assert!(!orphan.exists(), "store open kept a tmp orphan");

    // An incompatible manifest resets the store: its shard goes, the
    // user's file next to it stays.
    store.write_shard(0, &[], &RobustnessStats::default()).unwrap();
    let shard = store_root.join("shards").join("shard-00000.asg");
    assert!(shard.exists());
    let reset = SampleStore::open(&store_root, "corpus-b", 4, 2).unwrap();
    assert!(reset.completed_shards().is_empty());
    assert!(!shard.exists(), "reset kept a shard of the old corpus");
    assert!(shard_notes.exists(), "store reset deleted a user file under shards/");

    let _ = std::fs::remove_dir_all(&store_root);
}
