//! The directories the sample store and the disk cache own may be ones a
//! user already keeps other files in (`repro --store-dir`,
//! `AUTOSUGGEST_CACHE_DIR`). Opening either must reclaim only the tmp files
//! an interrupted writer left behind and never touch anything else.

use auto_suggest::cache::{DiskCache, DEFAULT_DISK_BUDGET};
use auto_suggest::corpus::SampleStore;
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
    std::fs::create_dir_all(&store_root).unwrap();
    let notes = store_root.join("notes.txt");
    let manifest = store_root.join("Cargo.toml");
    let orphan = store_root.join("manifest.tmp777-1");
    for f in [&notes, &manifest, &orphan] {
        std::fs::write(f, b"user data").unwrap();
    }
    let _store = SampleStore::open(&store_root, "corpus-a", 4, 2).unwrap();
    assert!(notes.exists() && manifest.exists(), "store open deleted a user file");
    assert!(!orphan.exists(), "store open kept a tmp orphan");

    let cache_root = scratch("cache");
    let mut kept = Vec::new();
    for sub in ["col", "tup"] {
        std::fs::create_dir_all(cache_root.join(sub)).unwrap();
        let foreign = cache_root.join(sub).join("README.md");
        std::fs::write(&foreign, b"user data").unwrap();
        kept.push(foreign);
    }
    let disk = DiskCache::open(&cache_root, DEFAULT_DISK_BUDGET).unwrap();
    for f in &kept {
        assert!(f.exists(), "cache open deleted {}", f.display());
    }
    assert_eq!(disk.bytes_total(), 0, "foreign files must not count as shards");

    let _ = std::fs::remove_dir_all(&store_root);
    let _ = std::fs::remove_dir_all(&cache_root);
}
