//! The worker lanes: the steps of a session's requests that can park run
//! here, never on an I/O thread.  Which steps those are is listed in
//! `docs/CONCURRENCY.md`.

use crate::reactor::WorkerPool;

/// Worker threads per lane.
pub(super) const LANE_WORKERS: usize = 4;

/// The two worker lanes — two on purpose, because their jobs block for
/// different causes.  A submit-lane job can wait on window capacity that
/// only a redemption returns, and a redeem-lane job is such a redemption,
/// resolved by pipeline progress or a chain the reactor drives.  No lane
/// job does peer I/O: the reactor dials, writes and reads every peer link,
/// so a job waiting on a chain never holds a thread the chain needs.  On
/// one lane,
/// waiting submissions could starve those redemptions.
pub(super) struct Pools {
    pub(super) submit: WorkerPool,
    pub(super) redeem: WorkerPool,
}

impl Pools {
    pub(super) fn new() -> Self {
        Pools {
            submit: WorkerPool::new("ypd-submit", LANE_WORKERS),
            redeem: WorkerPool::new("ypd-redeem", LANE_WORKERS),
        }
    }
}
