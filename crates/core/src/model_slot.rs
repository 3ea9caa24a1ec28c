//! Versioned, hot-swappable handle to the [`TrainedModels`] a daemon serves.
//!
//! The daemon serves from a [`ModelSlot`]: readers grab an
//! `Arc<VersionedModel>` under a briefly-held lock and then answer any
//! number of requests against that snapshot with no further
//! synchronisation. A reload trains a replacement off to the side and
//! installs it with [`ModelSlot::swap`] — a single `Arc` store, so
//! in-flight batches finish on the model they started with and new
//! batches pick up the new version. Nothing ever serves a half-trained
//! model and no request observes two versions. The slot holds only the
//! models: the replayed corpus and train/test invocations an
//! [`AutoSuggest`](crate::pipeline::AutoSuggest) carries for evaluation
//! are dropped on the way in.

use crate::pipeline::TrainedModels;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The served models plus the monotonically increasing version they were
/// installed as. Versions start at 1 for the model the slot was created
/// with and bump by one per [`ModelSlot::swap`].
pub struct VersionedModel {
    pub version: u64,
    pub system: TrainedModels,
}

/// A shared, swappable slot holding the current [`VersionedModel`].
///
/// `load()` is cheap (one `RwLock` read + `Arc` clone) and never blocks
/// behind training: `swap()` takes the write lock only for the pointer
/// store, after the replacement is fully built.
pub struct ModelSlot {
    current: RwLock<Arc<VersionedModel>>,
}

fn read_recover(lock: &RwLock<Arc<VersionedModel>>) -> RwLockReadGuard<'_, Arc<VersionedModel>> {
    match lock.read() {
        Ok(g) => g,
        // A panic while holding the lock can only have happened during the
        // pointer store, which is atomic w.r.t. the Arc — the value is intact.
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn write_recover(lock: &RwLock<Arc<VersionedModel>>) -> RwLockWriteGuard<'_, Arc<VersionedModel>> {
    match lock.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl ModelSlot {
    /// Wrap an initial trained system as version 1.
    pub fn new(system: impl Into<TrainedModels>) -> ModelSlot {
        let system = system.into();
        ModelSlot {
            current: RwLock::new(Arc::new(VersionedModel { version: 1, system })),
        }
    }

    /// Snapshot the current model. The returned `Arc` stays valid across
    /// any concurrent [`swap`](ModelSlot::swap).
    pub fn load(&self) -> Arc<VersionedModel> {
        Arc::clone(&read_recover(&self.current))
    }

    /// Install a replacement system, returning the version it was
    /// assigned. Callers train the replacement *before* calling this;
    /// the critical section is just the pointer store.
    pub fn swap(&self, system: impl Into<TrainedModels>) -> u64 {
        let system = system.into();
        let mut guard = write_recover(&self.current);
        let version = guard.version + 1;
        *guard = Arc::new(VersionedModel { version, system });
        version
    }

    /// The currently installed version.
    pub fn version(&self) -> u64 {
        read_recover(&self.current).version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{AutoSuggest, AutoSuggestConfig};

    #[test]
    fn swap_bumps_version_and_old_snapshots_survive() {
        let cfg = AutoSuggestConfig::fast(11);
        let slot = ModelSlot::new(AutoSuggest::train(cfg.clone()));
        assert_eq!(slot.version(), 1);

        let before = slot.load();
        assert_eq!(before.version, 1);

        let v2 = slot.swap(AutoSuggest::train(cfg.clone()));
        assert_eq!(v2, 2);
        assert_eq!(slot.version(), 2);

        // The pre-swap snapshot is still the old version and still usable.
        assert_eq!(before.version, 1);
        assert_eq!(slot.load().version, 2);
    }

    #[test]
    fn concurrent_loads_during_swap_see_exactly_one_version() {
        let cfg = AutoSuggestConfig::fast(7);
        let slot = std::sync::Arc::new(ModelSlot::new(AutoSuggest::train(cfg.clone())));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));

        let readers: Vec<_> = (0..4)
            .map(|_| {
                let slot = Arc::clone(&slot);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let m = slot.load();
                        assert!(m.version >= last, "versions must be monotone per reader");
                        last = m.version;
                    }
                    last
                })
            })
            .collect();

        let replacement = AutoSuggest::train(cfg.clone());
        let v = slot.swap(replacement);
        assert_eq!(v, 2);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            let last = r.join().expect("reader thread panicked");
            assert!(last <= 2);
        }
    }
}
