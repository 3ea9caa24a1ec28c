//! Typed replay errors — the taxonomy behind §3.2's failure handling.
//!
//! The crawl-scale pipeline survives because every failure is *classified*:
//! a missing file triggers path repair, a missing package triggers a
//! simulated install, a timeout or panic triggers bounded retry and
//! quarantine, and a schema mismatch is recorded and skipped. Stringly
//! errors made that classification a parsing exercise; [`ReplayError`]
//! makes it a `match`.

use std::fmt;

/// The failure classes the replay pipeline distinguishes. Each kind maps to
/// a distinct recovery policy (see `ReplayEngine` and DESIGN.md §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplayErrorKind {
    /// A data file could not be read at the given path (hard-coded
    /// absolute paths, missing downloads). Repair: basename search, URL
    /// hints, dataset API; retryable at the notebook level.
    IoPath,
    /// An imported package is absent. Repair: simulated `pip install`;
    /// permanent if the registry cannot resolve it.
    MissingPackage,
    /// The operator itself rejected its inputs (unknown column, undefined
    /// variable, malformed data). Permanent: retrying cannot help.
    SchemaMismatch,
    /// A panic escaped an operator (or was injected). Transient in the
    /// wild (OOM kills, flaky native code) — retried with a bound.
    OperatorPanic,
    /// The cell exceeded its execution budget (the paper's 5-minute
    /// timeout). Retryable at the notebook level.
    Timeout,
}

impl ReplayErrorKind {
    pub const ALL: [ReplayErrorKind; 5] = [
        ReplayErrorKind::IoPath,
        ReplayErrorKind::MissingPackage,
        ReplayErrorKind::SchemaMismatch,
        ReplayErrorKind::OperatorPanic,
        ReplayErrorKind::Timeout,
    ];

    pub fn as_str(&self) -> &'static str {
        match self {
            ReplayErrorKind::IoPath => "io_path",
            ReplayErrorKind::MissingPackage => "missing_package",
            ReplayErrorKind::SchemaMismatch => "schema_mismatch",
            ReplayErrorKind::OperatorPanic => "operator_panic",
            ReplayErrorKind::Timeout => "timeout",
        }
    }

    /// Whether a whole-notebook retry can plausibly clear this failure.
    /// Schema mismatches and unresolvable packages are deterministic;
    /// paths, timeouts, and panics are environmental and worth another
    /// round before quarantine.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            ReplayErrorKind::IoPath | ReplayErrorKind::Timeout | ReplayErrorKind::OperatorPanic
        )
    }
}

impl fmt::Display for ReplayErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A classified replay failure: the kind drives recovery, `message` keeps
/// the Python-style error text a real crawler would have parsed, and
/// `subject` carries the structured payload (path or package name) so no
/// downstream code ever re-parses the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    pub kind: ReplayErrorKind,
    pub message: String,
    pub subject: Option<String>,
}

impl ReplayError {
    pub fn io_path(path: impl Into<String>) -> Self {
        let path = path.into();
        ReplayError {
            kind: ReplayErrorKind::IoPath,
            message: format!("FileNotFoundError: No such file: '{path}'"),
            subject: Some(path),
        }
    }

    pub fn missing_package(pkg: impl Into<String>) -> Self {
        let pkg = pkg.into();
        ReplayError {
            kind: ReplayErrorKind::MissingPackage,
            message: format!("ModuleNotFoundError: No module named '{pkg}'"),
            subject: Some(pkg),
        }
    }

    pub fn schema(message: impl Into<String>) -> Self {
        ReplayError {
            kind: ReplayErrorKind::SchemaMismatch,
            message: message.into(),
            subject: None,
        }
    }

    pub fn operator_panic(message: impl Into<String>) -> Self {
        ReplayError {
            kind: ReplayErrorKind::OperatorPanic,
            message: message.into(),
            subject: None,
        }
    }

    pub fn timeout() -> Self {
        ReplayError {
            kind: ReplayErrorKind::Timeout,
            message: "TimeoutError: cell exceeded execution budget".into(),
            subject: None,
        }
    }

    /// The unresolvable path, for [`ReplayErrorKind::IoPath`] errors.
    pub fn missing_path(&self) -> Option<&str> {
        (self.kind == ReplayErrorKind::IoPath)
            .then_some(self.subject.as_deref())
            .flatten()
    }

    /// The missing package name, for [`ReplayErrorKind::MissingPackage`].
    pub fn package_name(&self) -> Option<&str> {
        (self.kind == ReplayErrorKind::MissingPackage)
            .then_some(self.subject.as_deref())
            .flatten()
    }
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.message)
    }
}

impl std::error::Error for ReplayError {}

impl From<autosuggest_parallel::TaskPanic> for ReplayError {
    fn from(p: autosuggest_parallel::TaskPanic) -> Self {
        ReplayError::operator_panic(format!("panic escaped the replay engine: {}", p.message))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind_message_and_subject() {
        let e = ReplayError::io_path("a/b.csv");
        assert_eq!(e.kind, ReplayErrorKind::IoPath);
        assert_eq!(e.missing_path(), Some("a/b.csv"));
        assert_eq!(e.message, "FileNotFoundError: No such file: 'a/b.csv'");
        assert_eq!(e.package_name(), None);

        let e = ReplayError::missing_package("seaborn");
        assert_eq!(e.package_name(), Some("seaborn"));
        assert_eq!(e.missing_path(), None);

        assert_eq!(ReplayError::timeout().kind, ReplayErrorKind::Timeout);
        assert_eq!(
            ReplayError::operator_panic("boom").kind,
            ReplayErrorKind::OperatorPanic
        );
        assert_eq!(ReplayError::schema("KeyError: 'x'").kind, ReplayErrorKind::SchemaMismatch);
    }

    #[test]
    fn retryability_matches_the_recovery_policy() {
        assert!(ReplayErrorKind::IoPath.retryable());
        assert!(ReplayErrorKind::Timeout.retryable());
        assert!(ReplayErrorKind::OperatorPanic.retryable());
        assert!(!ReplayErrorKind::MissingPackage.retryable());
        assert!(!ReplayErrorKind::SchemaMismatch.retryable());
    }

    #[test]
    fn task_panics_convert_to_operator_panic() {
        let e = ReplayError::from(autosuggest_parallel::TaskPanic {
            index: 3,
            message: "boom".into(),
        });
        assert_eq!(e.kind, ReplayErrorKind::OperatorPanic);
        assert!(e.message.contains("boom"));
    }
}
