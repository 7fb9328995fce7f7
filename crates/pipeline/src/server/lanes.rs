//! The worker lane: the steps of a session's requests that can park run
//! here, never on an I/O thread.  Which steps those are is listed in
//! `docs/CONCURRENCY.md`.

use crate::reactor::WorkerPool;

/// Worker threads on the lane.
pub(super) const LANE_WORKERS: usize = 4;

/// The daemon's one worker lane, `ypd-lane-N`.  Its jobs are the calls a
/// backend hands back (an eager `submit`, a hosted `RemoteBackend`'s round
/// trips, an inbound `Delegate` whose wrapped backend is eager), a
/// `SubmitBatch` parked on its admission until `batch_deadline`, and a peer
/// name looked up again after a failed dial.
///
/// One lane is enough because nothing on it frees a window permit: no
/// backend with an admission window hands a redemption or a release back
/// (the live backend finishes both as completions, and the federation
/// forwards them to it), so a job waiting for permits waits for a
/// completion on another thread, never for another lane job.  The shape
/// that would break this is a backend that hands back both a submission
/// that parks on a window and the redemption that frees it; only the
/// `ParkingRelease` test wrapper has it.
pub(super) fn lane() -> WorkerPool {
    WorkerPool::new("ypd-lane", LANE_WORKERS)
}
