//! Typed errors surfaced by the fallible (`try_*`) index entry points.

use peb_storage::IoFault;

/// Why a fallible index operation could not complete.
///
/// Today the only source is the storage layer: an unresolvable media
/// fault ([`IoFault`]) that the buffer pool's retry/read-repair machinery
/// could not hide — transient retries exhausted, a permanently bad
/// sector, or detected corruption with no WAL image to repair from
/// (non-durable pools cannot repair at all). The enum leaves room for
/// future non-I/O failure classes without breaking callers.
///
/// The error chains: [`std::error::Error::source`] walks down to the
/// underlying fault, so generic error reporters see the full story.
///
/// ```
/// use std::error::Error;
/// use peb_index::IndexError;
/// use peb_storage::{IoFault, PageId};
///
/// let err = IndexError::from(IoFault::BadSector { pid: PageId(7) });
/// assert_eq!(err.to_string(), "index I/O error: bad sector at page 7");
/// let fault = err.source().expect("the fault is the source");
/// assert_eq!(fault.to_string(), "bad sector at page 7");
/// assert!(fault.source().is_none(), "the fault is the root cause");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum IndexError {
    /// An unresolvable media fault from the storage layer.
    Io(IoFault),
    /// A position report for an object the key layout has no state for (a
    /// uid outside the encoded population). Rejected before any shard, the
    /// pool or the log is touched.
    UnknownUser {
        /// The uid the report named.
        uid: u64,
    },
    /// A position report whose position, velocity or `t_update` is NaN or
    /// infinite. Rejected before any shard, the pool or the log is touched.
    MalformedReport {
        /// The uid the report named.
        uid: u64,
    },
}

impl From<IoFault> for IndexError {
    fn from(fault: IoFault) -> Self {
        IndexError::Io(fault)
    }
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::Io(fault) => write!(f, "index I/O error: {fault}"),
            IndexError::UnknownUser { uid } => {
                write!(f, "user {uid} is outside the indexed population")
            }
            IndexError::MalformedReport { uid } => {
                write!(f, "position report for user {uid} has a non-finite number")
            }
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Io(fault) => Some(fault),
            IndexError::UnknownUser { .. } | IndexError::MalformedReport { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peb_storage::PageId;

    #[test]
    fn wraps_and_displays_the_fault() {
        let fault = IoFault::BadSector { pid: PageId(7) };
        let err: IndexError = fault.into();
        assert_eq!(err, IndexError::Io(fault));
        let text = err.to_string();
        assert!(text.contains("index I/O error"), "{text}");
        assert!(std::error::Error::source(&err).is_some());
    }
}
