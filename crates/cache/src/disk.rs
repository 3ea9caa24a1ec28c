//! Persistent on-disk artifact shards.
//!
//! Content addressing makes cross-process persistence safe: a shard file is
//! named by the 128-bit fingerprint of its content key, is written once,
//! and is never mutated — a warm directory turns the in-memory cache's
//! warm-featurisation speedup into a cold-start-free serving property
//! (every new process starts "disk-warm"). Layout under
//! `AUTOSUGGEST_CACHE_DIR`:
//!
//! ```text
//! $AUTOSUGGEST_CACHE_DIR/
//!   col/<fingerprint:032x>.shard   column artifacts (stats + base sketch)
//!   tup/<fingerprint:032x>.shard   key-tuple sets (sorted distinct hashes)
//! ```
//!
//! # Format and corruption safety
//!
//! A shard is a [`crate::durable`] record file (`ASGC`, version 2) holding
//! one record whose tag is the kind (column or tuple set), read with plain
//! `fs::read` and written with [`durable::publish`]. Floats are stored as
//! exact IEEE bit patterns, so a disk-warm run is byte-identical to a cold
//! one. Every read is length-checked, checksummed, and semantically
//! validated (sorted sketch mins, consistent counts); any failure —
//! including a version-1 shard from an older build — deletes the bad
//! shard, counts `cache.disk.corrupt`, and falls back to recomputation — a
//! truncated or bit-flipped file can cost at most one recompute.
//!
//! # Eviction and determinism
//!
//! The directory is bounded by a byte budget (`AUTOSUGGEST_CACHE_DISK_BUDGET`,
//! default 256 MiB). Eviction is at file granularity in lexicographic
//! name order over the files that pre-existed this process (names are
//! content hashes, so the order depends only on cache contents — never on
//! `read_dir` iteration order or mtime granularity); files read
//! or written by the current process are pinned and never evicted within
//! it. This keeps the disk counters thread-invariant: lookups happen only
//! on in-memory misses (themselves deterministic via single-flight), each
//! distinct key is probed at most once per process, pinned files cannot
//! disappear mid-run, and the number of evictions is the minimal prefix of
//! the fixed victim order whose removal brings the directory back under
//! budget — a pure function of the key set, not of scheduling.

use crate::durable::{self, ByteReader, ByteWriter, RecordFile, Records};
use crate::lru::lock_recover;
use crate::pair::KeyTupleSet;
use crate::{artifacts, ColumnArtifacts, ColumnFingerprint, MinHashSketch};
use std::collections::{HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Obs counter names for the disk tier (deterministic section).
pub const DISK_HITS_COUNTER: &str = "cache.disk.hits";
pub const DISK_MISSES_COUNTER: &str = "cache.disk.misses";
pub const DISK_EVICTIONS_COUNTER: &str = "cache.disk.evictions";
pub const DISK_CORRUPT_COUNTER: &str = "cache.disk.corrupt";
pub const DISK_WRITES_COUNTER: &str = "cache.disk.writes";

/// Default directory byte budget when `AUTOSUGGEST_CACHE_DISK_BUDGET` is
/// unset: 256 MiB.
pub const DEFAULT_DISK_BUDGET: u64 = 256 * 1024 * 1024;

const MAGIC: [u8; 4] = *b"ASGC";
const VERSION: u16 = 2;
const KIND_COLUMN: u8 = 1;
const KIND_TUPLES: u8 = 2;

/// Cumulative disk-tier counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub corrupt: u64,
    pub writes: u64,
}

impl DiskStats {
    /// Every probe of the disk tier: served (`hits`), absent (`misses`),
    /// and present-but-unreadable (`corrupt`). A corrupt read is a failed
    /// lookup — the caller recomputed exactly as it would have on a miss —
    /// so it belongs in the lookup count.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.corrupt
    }

    /// Effective hit rate: `hits / (hits + misses + corrupt)`.
    ///
    /// Convention: corrupt reads count against the rate, because the tier
    /// failed to serve those lookups even though a shard file existed.
    /// Every place this rate is printed (`repro --cache-stats`, the
    /// `"cache"` section of BENCH_repro.json) labels it "effective hit
    /// rate" for this reason — it is *not* `hits / (hits + misses)`.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Counter deltas since an earlier snapshot of the same cache.
    pub fn since(&self, earlier: &DiskStats) -> DiskStats {
        DiskStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            corrupt: self.corrupt.saturating_sub(earlier.corrupt),
            writes: self.writes.saturating_sub(earlier.writes),
        }
    }
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// One `ASGC` v2 shard image: a single durable record tagged with `kind`.
fn shard_image(kind: u8, payload: ByteWriter) -> Vec<u8> {
    let mut file = RecordFile::new(MAGIC, VERSION);
    file.record(kind, &payload.into_bytes());
    file.into_bytes()
}

/// Validate the frame (magic, version, a single record of `kind`) and
/// return a reader over its payload, positioned after a key check against
/// `want` — a misplaced file must not satisfy a foreign lookup.
fn shard_payload(bytes: &[u8], kind: u8, want: ColumnFingerprint) -> Option<ByteReader<'_>> {
    let mut records = Records::open(bytes, MAGIC, VERSION).ok()?;
    let (tag, payload) = records.next_record().ok()?;
    records.finish().ok()?;
    let mut r = ByteReader::new(payload);
    (tag == kind && r.get_u128().ok()? == want.0).then_some(r)
}

/// Serialize column artifacts (exact: floats as IEEE bit patterns).
pub fn encode_column(fp: ColumnFingerprint, art: &ColumnArtifacts) -> Vec<u8> {
    let mut w = ByteWriter::default();
    w.put_u128(fp.0);
    w.put_usize(art.len());
    w.put_usize(art.null_count());
    w.put_usize(art.distinct_count());
    w.put_usize(art.peak_frequency());
    match art.min_max() {
        Some((lo, hi)) => {
            w.put_u8(1);
            w.put_f64(lo);
            w.put_f64(hi);
        }
        None => w.put_u8(0),
    }
    w.put_u8(artifacts::dtype_slot(art.dtype()) as u8);
    for &c in art.dtype_counts() {
        w.put_u64(c);
    }
    let sk = art.sketch();
    w.put_usize(sk.k());
    w.put_usize(sk.cardinality());
    w.put_usize(sk.mins().len());
    for &m in sk.mins() {
        w.put_u64(m);
    }
    shard_image(KIND_COLUMN, w)
}

/// Decode column artifacts; `None` on any framing, checksum, or semantic
/// violation (including a fingerprint that does not match the requested
/// key — a misplaced file must not satisfy a foreign lookup).
pub fn decode_column(bytes: &[u8], want: ColumnFingerprint) -> Option<ColumnArtifacts> {
    let mut r = shard_payload(bytes, KIND_COLUMN, want)?;
    let len = r.get_usize().ok()?;
    let null_count = r.get_usize().ok()?;
    let distinct_count = r.get_usize().ok()?;
    let peak_frequency = r.get_usize().ok()?;
    let min_max = match r.get_u8().ok()? {
        0 => None,
        1 => Some((r.get_f64().ok()?, r.get_f64().ok()?)),
        _ => return None,
    };
    let dtype = artifacts::dtype_from_slot(r.get_u8().ok()? as usize)?;
    let mut dtype_counts = [0u64; 6];
    for c in &mut dtype_counts {
        *c = r.get_u64().ok()?;
    }
    let k = r.get_usize().ok()?;
    let cardinality = r.get_usize().ok()?;
    let n_mins = r.get_count(8).ok()?;
    let mut mins = Vec::with_capacity(n_mins);
    for _ in 0..n_mins {
        mins.push(r.get_u64().ok()?);
    }
    r.finish().ok()?;
    let sketch = MinHashSketch::from_parts(k, mins, cardinality)?;
    ColumnArtifacts::from_parts(
        len,
        null_count,
        distinct_count,
        min_max,
        dtype,
        dtype_counts,
        peak_frequency,
        sketch,
    )
}

/// Serialize a key-tuple set.
pub fn encode_tuples(set: &KeyTupleSet) -> Vec<u8> {
    let mut w = ByteWriter::default();
    w.put_u128(set.fingerprint().0);
    w.put_usize(set.width());
    w.put_usize(set.len());
    for &h in set.hashes() {
        w.put_u64(h);
    }
    shard_image(KIND_TUPLES, w)
}

/// Decode a key-tuple set; `None` on any violation.
pub fn decode_tuples(bytes: &[u8], want: ColumnFingerprint) -> Option<KeyTupleSet> {
    let mut r = shard_payload(bytes, KIND_TUPLES, want)?;
    let width = r.get_usize().ok()?;
    let n = r.get_count(8).ok()?;
    let mut hashes = Vec::with_capacity(n);
    for _ in 0..n {
        hashes.push(r.get_u64().ok()?);
    }
    r.finish().ok()?;
    KeyTupleSet::from_parts(want, width, hashes)
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

struct DiskState {
    /// Total bytes currently accounted under the root (shards only).
    bytes_total: u64,
    /// Pre-existing files in lexicographic path order — the fixed eviction
    /// queue. Shard names are content hashes, so this order is a pure
    /// function of the cache *contents*, independent of filesystem
    /// `read_dir` iteration order or mtime granularity. Files created by
    /// this process are pinned instead and are never eviction candidates
    /// within it.
    victims: VecDeque<(PathBuf, u64)>,
    /// Files read or written by this process (LRU-touched): never evicted.
    pinned: HashSet<PathBuf>,
}

/// A write-once, content-addressed shard directory shared by the column and
/// tuple-set tiers.
pub struct DiskCache {
    root: PathBuf,
    budget_bytes: u64,
    state: Mutex<DiskState>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    corrupt: AtomicU64,
    writes: AtomicU64,
}

impl DiskCache {
    /// Open (creating if needed) a shard directory with the given byte
    /// budget. Scans existing shards once to seed the size ledger and the
    /// name-ordered eviction queue. Ordering by name (not mtime) keeps the
    /// victim walk deterministic: `read_dir` iteration order is
    /// filesystem-dependent and mtimes collide at filesystem timestamp
    /// granularity, so either would make eviction order (and hence the
    /// post-eviction cache contents) platform-dependent.
    pub fn open(root: &Path, budget_bytes: u64) -> std::io::Result<Arc<DiskCache>> {
        let mut existing: Vec<(PathBuf, u64)> = Vec::new();
        for sub in ["col", "tup"] {
            let dir = root.join(sub);
            std::fs::create_dir_all(&dir)?;
            // Reclaim tmp files from interrupted writers first.
            durable::sweep_tmp(&dir)?;
            for entry in std::fs::read_dir(&dir)? {
                let entry = entry?;
                let path = entry.path();
                let meta = entry.metadata()?;
                if meta.is_file() && path.extension().is_some_and(|e| e == "shard") {
                    existing.push((path, meta.len()));
                }
            }
        }
        existing.sort();
        let bytes_total = existing.iter().map(|e| e.1).sum();
        let victims = existing.into_iter().collect();
        Ok(Arc::new(DiskCache {
            root: root.to_path_buf(),
            budget_bytes: budget_bytes.max(1),
            state: Mutex::new(DiskState { bytes_total, victims, pinned: HashSet::new() }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }))
    }

    /// Build from `AUTOSUGGEST_CACHE_DIR` / `AUTOSUGGEST_CACHE_DISK_BUDGET`;
    /// `None` when the dir is unset, empty, or cannot be opened (the cache
    /// then runs memory-only — persistence is always best-effort).
    pub fn from_env() -> Option<Arc<DiskCache>> {
        let dir = std::env::var("AUTOSUGGEST_CACHE_DIR").ok()?;
        let dir = dir.trim();
        if dir.is_empty() {
            return None;
        }
        let budget = std::env::var("AUTOSUGGEST_CACHE_DISK_BUDGET")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(DEFAULT_DISK_BUDGET);
        match DiskCache::open(Path::new(dir), budget) {
            Ok(d) => Some(d),
            Err(e) => {
                eprintln!("[autosuggest-cache] cannot open AUTOSUGGEST_CACHE_DIR {dir:?}: {e}; running memory-only");
                None
            }
        }
    }

    /// Bytes currently accounted under the root.
    pub fn bytes_total(&self) -> u64 {
        lock_recover(&self.state).bytes_total
    }

    pub fn stats(&self) -> DiskStats {
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    fn column_path(&self, fp: ColumnFingerprint) -> PathBuf {
        self.root.join("col").join(format!("{fp}.shard"))
    }

    fn tuples_path(&self, fp: ColumnFingerprint) -> PathBuf {
        self.root.join("tup").join(format!("{fp}.shard"))
    }

    /// Load column artifacts for `fp`. Counts a hit, miss, or corrupt;
    /// corrupt shards are deleted so the subsequent store can rewrite them.
    pub fn load_column(&self, fp: ColumnFingerprint) -> Option<ColumnArtifacts> {
        self.load_with(&self.column_path(fp), |bytes| decode_column(bytes, fp))
    }

    /// Load a key-tuple set for `fp`.
    pub fn load_tuples(&self, fp: ColumnFingerprint) -> Option<KeyTupleSet> {
        self.load_with(&self.tuples_path(fp), |bytes| decode_tuples(bytes, fp))
    }

    fn load_with<T>(&self, path: &Path, decode: impl FnOnce(&[u8]) -> Option<T>) -> Option<T> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                autosuggest_obs::counter_add(DISK_MISSES_COUNTER, 1);
                return None;
            }
        };
        match decode(&bytes) {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                autosuggest_obs::counter_add(DISK_HITS_COUNTER, 1);
                lock_recover(&self.state).pinned.insert(path.to_path_buf());
                Some(v)
            }
            None => {
                // Corrupted, truncated, or misfiled shard: delete it and
                // fall back to recomputation.
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                autosuggest_obs::counter_add(DISK_CORRUPT_COUNTER, 1);
                let mut st = lock_recover(&self.state);
                if std::fs::remove_file(path).is_ok() {
                    st.bytes_total = st.bytes_total.saturating_sub(bytes.len() as u64);
                    if let Some(idx) = st.victims.iter().position(|(p, _)| p == path) {
                        st.victims.remove(idx);
                    }
                }
                None
            }
        }
    }

    /// Persist column artifacts (write-once).
    pub fn store_column(&self, fp: ColumnFingerprint, art: &ColumnArtifacts) {
        self.store_bytes(&self.column_path(fp), encode_column(fp, art));
    }

    /// Persist a key-tuple set (write-once).
    pub fn store_tuples(&self, set: &KeyTupleSet) {
        self.store_bytes(&self.tuples_path(set.fingerprint()), encode_tuples(set));
    }

    fn store_bytes(&self, path: &Path, bytes: Vec<u8>) {
        let mut st = lock_recover(&self.state);
        if path.exists() {
            st.pinned.insert(path.to_path_buf());
            return;
        }
        // Atomic publish: readers can never observe a torn shard.
        if durable::publish(path, &bytes).is_err() {
            return;
        }
        st.bytes_total = st.bytes_total.saturating_add(bytes.len() as u64);
        st.pinned.insert(path.to_path_buf());
        self.writes.fetch_add(1, Ordering::Relaxed);
        autosuggest_obs::counter_add(DISK_WRITES_COUNTER, 1);
        // Enforce the byte budget against pre-existing, unpinned shards in
        // the fixed name order.
        while st.bytes_total > self.budget_bytes {
            let Some((victim, size)) = st.victims.pop_front() else {
                break; // only this process's pinned shards remain
            };
            if st.pinned.contains(&victim) {
                continue;
            }
            if std::fs::remove_file(&victim).is_ok() {
                st.bytes_total = st.bytes_total.saturating_sub(size);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                autosuggest_obs::counter_add(DISK_EVICTIONS_COUNTER, 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autosuggest_dataframe::{Column, DataFrame, Value};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "autosuggest-diskcache-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn mixed_column() -> Column {
        let mut vals: Vec<Value> = (0..300).map(Value::Int).collect();
        vals.push(Value::Null);
        vals.push(Value::Float(2.75));
        vals.push(Value::Str("x".into()));
        Column::new("c", vals)
    }

    #[test]
    fn column_roundtrip_is_bit_identical() {
        let col = mixed_column();
        let fp = crate::column_fingerprint(&col);
        let art = ColumnArtifacts::compute(&col);
        let decoded = decode_column(&encode_column(fp, &art), fp).unwrap();
        assert_eq!(decoded.len(), art.len());
        assert_eq!(decoded.null_count(), art.null_count());
        assert_eq!(decoded.distinct_count(), art.distinct_count());
        assert_eq!(
            decoded.min_max().map(|(a, b)| (a.to_bits(), b.to_bits())),
            art.min_max().map(|(a, b)| (a.to_bits(), b.to_bits()))
        );
        assert_eq!(decoded.dtype(), art.dtype());
        assert_eq!(decoded.dtype_counts(), art.dtype_counts());
        assert_eq!(decoded.peak_frequency(), art.peak_frequency());
        assert_eq!(decoded.sketch().k(), art.sketch().k());
        assert_eq!(decoded.sketch().mins(), art.sketch().mins());
        assert_eq!(decoded.sketch().cardinality(), art.sketch().cardinality());
    }

    #[test]
    fn tuples_roundtrip_is_bit_identical() {
        let df = DataFrame::from_columns(vec![
            ("a", (0..100).map(|i| Value::Int(i % 37)).collect()),
            ("b", (0..100).map(|i| Value::Int(i % 11)).collect()),
        ])
        .unwrap();
        let set = KeyTupleSet::compute(&df, &[0, 1]);
        let decoded = decode_tuples(&encode_tuples(&set), set.fingerprint()).unwrap();
        assert_eq!(decoded, set);
    }

    #[test]
    fn truncated_and_corrupted_shards_are_rejected() {
        let col = mixed_column();
        let fp = crate::column_fingerprint(&col);
        let art = ColumnArtifacts::compute(&col);
        let good = encode_column(fp, &art);
        assert!(decode_column(&good, fp).is_some());
        // Every truncation point fails cleanly.
        for cut in 0..good.len() {
            assert!(decode_column(&good[..cut], fp).is_none(), "cut at {cut} accepted");
        }
        // Every single-byte flip is caught by the checksum (or framing).
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(decode_column(&bad, fp).is_none(), "flip at {i} accepted");
        }
        // A valid shard under the wrong key must not decode.
        assert!(decode_column(&good, ColumnFingerprint(fp.0 ^ 1)).is_none());
        // Same for tuple shards.
        let df = DataFrame::from_columns(vec![("a", (0..50).map(Value::Int).collect())])
            .unwrap();
        let set = KeyTupleSet::compute(&df, &[0]);
        let good_t = encode_tuples(&set);
        for cut in 0..good_t.len() {
            assert!(decode_tuples(&good_t[..cut], set.fingerprint()).is_none(), "cut at {cut}");
        }
        for i in 0..good_t.len() {
            let mut bad_t = good_t.clone();
            bad_t[i] ^= 0x01;
            assert!(decode_tuples(&bad_t, set.fingerprint()).is_none(), "flip at {i}");
        }
    }

    #[test]
    fn version_1_shards_are_rejected() {
        // The pre-durable-layer frame: magic · version 1 · kind · payload ·
        // fnv64 of everything before it.
        let col = mixed_column();
        let fp = crate::column_fingerprint(&col);
        let good = encode_column(fp, &ColumnArtifacts::compute(&col));
        let mut v1 = b"ASGC".to_vec();
        v1.extend_from_slice(&1u16.to_le_bytes());
        v1.push(KIND_COLUMN);
        v1.extend_from_slice(&good[11..good.len() - 8]);
        let sum = durable::fnv64(&v1);
        v1.extend_from_slice(&sum.to_le_bytes());
        assert!(decode_column(&v1, fp).is_none());
    }

    #[test]
    fn store_load_cycle_counts_and_pins() {
        let dir = tmpdir("cycle");
        let disk = DiskCache::open(&dir, DEFAULT_DISK_BUDGET).unwrap();
        let col = mixed_column();
        let fp = crate::column_fingerprint(&col);
        // Miss before any store.
        assert!(disk.load_column(fp).is_none());
        let art = ColumnArtifacts::compute(&col);
        disk.store_column(fp, &art);
        // Second store of the same key is write-once (no second write).
        disk.store_column(fp, &art);
        let loaded = disk.load_column(fp).unwrap();
        assert_eq!(loaded.distinct_count(), art.distinct_count());
        assert_eq!(
            disk.stats(),
            DiskStats { hits: 1, misses: 1, evictions: 0, corrupt: 0, writes: 1 }
        );
        assert!(disk.bytes_total() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_shard_on_disk_falls_back_and_is_deleted() {
        let dir = tmpdir("corrupt");
        let disk = DiskCache::open(&dir, DEFAULT_DISK_BUDGET).unwrap();
        let col = mixed_column();
        let fp = crate::column_fingerprint(&col);
        let art = ColumnArtifacts::compute(&col);
        disk.store_column(fp, &art);
        // Flip a byte in the stored shard.
        let path = disk.column_path(fp);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(disk.load_column(fp).is_none());
        assert_eq!(disk.stats().corrupt, 1);
        assert!(!path.exists(), "corrupt shard must be deleted");
        // Recompute-and-store works again afterwards.
        disk.store_column(fp, &art);
        assert!(disk.load_column(fp).is_some());
        // Effective-hit-rate convention: the corrupt read is a failed
        // lookup, so hits=1 over lookups = hits+misses+corrupt = 2.
        let stats = disk.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.lookups(), 2);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hit_rate_counts_corrupt_reads_in_denominator() {
        // The documented convention: hit_rate = hits / (hits+misses+corrupt),
        // not hits / (hits+misses) — a corrupt shard failed to serve its
        // lookup, exactly like a miss.
        let stats = DiskStats { hits: 6, misses: 2, evictions: 0, corrupt: 2, writes: 4 };
        assert_eq!(stats.lookups(), 10);
        assert!((stats.hit_rate() - 0.6).abs() < 1e-12);
        assert_eq!(DiskStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn directory_lru_honors_byte_budget() {
        let dir = tmpdir("budget");
        // Seed a directory with shards from a "previous process".
        let cols: Vec<Column> = (0..12)
            .map(|i| Column::new("c", (i * 100..i * 100 + 60).map(Value::Int).collect::<Vec<_>>()))
            .collect();
        let per_shard = {
            let disk = DiskCache::open(&dir, u64::MAX).unwrap();
            for c in &cols {
                disk.store_column(crate::column_fingerprint(c), &ColumnArtifacts::compute(c));
            }
            disk.bytes_total() / cols.len() as u64
        };
        assert!(per_shard > 0);
        // Reopen with a budget that fits ~6 shards, then write 3 new ones:
        // the oldest pre-existing shards are evicted to stay under budget.
        let budget = per_shard * 6;
        let disk = DiskCache::open(&dir, budget).unwrap();
        let before = disk.bytes_total();
        assert!(before > budget, "seeded dir must exceed the budget");
        for i in 100..103 {
            let c = Column::new("n", (i * 100..i * 100 + 60).map(Value::Int).collect::<Vec<_>>());
            disk.store_column(crate::column_fingerprint(&c), &ColumnArtifacts::compute(&c));
        }
        assert!(
            disk.bytes_total() <= budget,
            "bytes {} exceed budget {budget}",
            disk.bytes_total()
        );
        let stats = disk.stats();
        assert!(stats.evictions > 0);
        assert_eq!(stats.writes, 3);
        // The 3 new shards survive (pinned); evictions came from the old set.
        for i in 100..103i64 {
            let c = Column::new("n", (i * 100..i * 100 + 60).map(Value::Int).collect::<Vec<_>>());
            assert!(disk.load_column(crate::column_fingerprint(&c)).is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_order_is_independent_of_creation_order() {
        // Seed two directories with the same shard set written in opposite
        // creation orders (distinct mtimes), then force evictions in each:
        // the surviving shard files must be identical. Pinned by name-order
        // eviction; (mtime, name) ordering fails this.
        let survivors = |tag: &str, order: &[usize]| {
            let dir = tmpdir(tag);
            let cols: Vec<Column> = (0..8)
                .map(|i| {
                    Column::new(
                        "c",
                        (i * 100..i * 100 + 60).map(Value::Int).collect::<Vec<_>>(),
                    )
                })
                .collect();
            let per_shard = {
                let disk = DiskCache::open(&dir, u64::MAX).unwrap();
                for &i in order {
                    disk.store_column(
                        crate::column_fingerprint(&cols[i]),
                        &ColumnArtifacts::compute(&cols[i]),
                    );
                    // Space mtimes apart so an mtime-ordered queue would
                    // really follow creation order.
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                disk.bytes_total() / cols.len() as u64
            };
            let disk = DiskCache::open(&dir, per_shard * 5).unwrap();
            let c = Column::new("n", (10_000..10_060).map(Value::Int).collect::<Vec<_>>());
            disk.store_column(crate::column_fingerprint(&c), &ColumnArtifacts::compute(&c));
            assert!(disk.stats().evictions > 0, "budget must force evictions");
            let mut names: Vec<String> = std::fs::read_dir(dir.join("col"))
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            let _ = std::fs::remove_dir_all(&dir);
            names
        };
        let forward: Vec<usize> = (0..8).collect();
        let shuffled = [5usize, 0, 7, 2, 6, 1, 4, 3];
        assert_eq!(
            survivors("evict-fwd", &forward),
            survivors("evict-shuf", &shuffled),
            "eviction outcome must not depend on shard creation order"
        );
    }

    #[test]
    fn stale_tmp_files_are_swept_and_not_counted() {
        // A crash between tmp write and rename leaves `<name>.tmp<pid>-<n>`
        // holding a prefix of a valid image. Whatever its length, open
        // reclaims it, never counts it against the byte budget, and never
        // serves it: its key stays a plain miss.
        let dir = tmpdir("tmpsweep");
        {
            let disk = DiskCache::open(&dir, DEFAULT_DISK_BUDGET).unwrap();
            let col = mixed_column();
            disk.store_column(crate::column_fingerprint(&col), &ColumnArtifacts::compute(&col));
        }
        let real_bytes = DiskCache::open(&dir, DEFAULT_DISK_BUDGET).unwrap().bytes_total();
        let other = Column::new("o", (0..40).map(Value::Int).collect::<Vec<_>>());
        let fp = crate::column_fingerprint(&other);
        let image = encode_column(fp, &ColumnArtifacts::compute(&other));
        for k in 0..=image.len() {
            let orphan = dir.join("col").join(format!("{fp}.tmp99999-{k}"));
            std::fs::write(&orphan, &image[..k]).unwrap();
            let disk = DiskCache::open(&dir, DEFAULT_DISK_BUDGET).unwrap();
            assert!(!orphan.exists(), "stale tmp file of {k} bytes must be swept on open");
            assert_eq!(
                disk.bytes_total(),
                real_bytes,
                "tmp orphans must not count against the budget"
            );
            assert!(disk.load_column(fp).is_none(), "a tmp file must never be read");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_reads_what_a_previous_process_wrote() {
        let dir = tmpdir("reopen");
        let col = mixed_column();
        let fp = crate::column_fingerprint(&col);
        let art = ColumnArtifacts::compute(&col);
        {
            let disk = DiskCache::open(&dir, DEFAULT_DISK_BUDGET).unwrap();
            disk.store_column(fp, &art);
            let df = DataFrame::from_columns(vec![("a", (0..40).map(Value::Int).collect())])
                .unwrap();
            disk.store_tuples(&KeyTupleSet::compute(&df, &[0]));
        }
        let disk = DiskCache::open(&dir, DEFAULT_DISK_BUDGET).unwrap();
        assert!(disk.bytes_total() > 0);
        let loaded = disk.load_column(fp).unwrap();
        assert_eq!(loaded.sketch().mins(), art.sketch().mins());
        let df = DataFrame::from_columns(vec![("a", (0..40).map(Value::Int).collect())])
            .unwrap();
        let set = KeyTupleSet::compute(&df, &[0]);
        assert_eq!(disk.load_tuples(set.fingerprint()).unwrap(), set);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
