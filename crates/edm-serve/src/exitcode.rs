//! Process exit codes shared by the `edm-cli` and `edm-fleet` binaries.
//!
//! The codes follow BSD `sysexits.h` so shell callers and CI wrappers can
//! branch on *why* a run failed without parsing stderr:
//!
//! | code | meaning | retry? |
//! |------|---------|--------|
//! | 0    | success | — |
//! | 1    | unclassified failure | no |
//! | 2    | usage error (bad flags / arguments) | no |
//! | 65   | data error (corrupt journal, bad input file) | no |
//! | 75   | transient backend failure — the retry budget ran out | yes |

use qsim::SimError;

/// Generic failure not covered by a more specific code.
pub const FAILURE: u8 = 1;

/// The command line could not be understood.
pub const USAGE: u8 = 2;

/// Input data exists but is unusable (`EX_DATAERR`): a corrupt journal,
/// an unparseable circuit file.
pub const DATA: u8 = 65;

/// A transient backend condition outlasted the retry budget
/// (`EX_TEMPFAIL`): rerunning the identical command may succeed.
pub const TRANSIENT: u8 = 75;

/// Classifies a simulator error: [`TRANSIENT`] when retrying the same
/// command could succeed, [`FAILURE`] otherwise.
///
/// # Examples
///
/// ```
/// use edm_serve::exitcode;
/// use qsim::SimError;
///
/// let down = SimError::BackendUnavailable { reason: "queue contention" };
/// assert_eq!(exitcode::for_sim_error(&down), exitcode::TRANSIENT);
/// let bad = SimError::UnsupportedGate { name: "ccx" };
/// assert_eq!(exitcode::for_sim_error(&bad), exitcode::FAILURE);
/// ```
pub fn for_sim_error(e: &SimError) -> u8 {
    if e.is_transient() {
        TRANSIENT
    } else {
        FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_match_sysexits() {
        assert_eq!(USAGE, 2);
        assert_eq!(DATA, 65);
        assert_eq!(TRANSIENT, 75);
        assert_eq!(FAILURE, 1);
    }

    #[test]
    fn transient_classification_tracks_is_transient() {
        let transient = SimError::BackendUnavailable { reason: "down" };
        assert_eq!(for_sim_error(&transient), TRANSIENT);
        let panic = SimError::ExecutionPanicked {
            detail: "boom".into(),
        };
        assert_eq!(for_sim_error(&panic), FAILURE);
    }
}
