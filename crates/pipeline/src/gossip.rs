//! The anti-entropy gossip plane: versioned advertisement logs whose
//! deltas keep every peer's directory fresh *without* redialing links.
//!
//! Before this plane existed, pool advertisements crossed the federation
//! only in the `SyncPools` handshake performed when a peer link came up —
//! pools created or destroyed over a *healthy* link went stale until the
//! link died and was redialed.  The gossip plane closes that gap:
//!
//! * Every daemon keeps a **versioned advertisement log per origin
//!   domain** ([`OriginLog`]): a monotone epoch (bumped when the origin
//!   restarts) and a strictly increasing sequence number per entry, each
//!   entry recording one pool coming up or going away.  The daemon is
//!   authoritative for its own domain's log and relays the logs of every
//!   origin it has learned — news crosses multi-hop topologies without
//!   any origin dialing every domain.
//! * Deltas ([`actyp_proto::AdvertDelta`]) ship two ways: **piggybacked**
//!   on the `Delegated` and `PoolsSynced` replies already flowing, and
//!   **pushed** by a periodic anti-entropy exchange
//!   (`AdvertDelta`/`AdvertAck`) on idle peer links.  The exchange
//!   carries version vectors ([`actyp_proto::AdvertVersion`]) both ways,
//!   so one round syncs both directions and ships only the missing tail.
//! * Logs are **compacted**: once an origin's retained tail grows past a
//!   bound, the oldest entries are folded into the live pool set and a
//!   floor is recorded.  A peer whose version is behind the floor
//!   receives a full snapshot (`full: true`) instead of an incremental
//!   tail.
//!
//! Application is idempotent and monotone: entries at or below the known
//! sequence are skipped, a delta from a stale epoch is ignored, and a
//! newer epoch resets everything known about the origin.  The events the
//! plane emits ([`GossipEvent`]) drive the peer directory and invalidate
//! the learned route cache — the same delta that announces a pool's death
//! kills the cached one-hop route to it.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;

use actyp_proto::{AdvertDelta, AdvertEntry, AdvertVersion};

/// Retained-tail bound per origin log: once more than this many entries
/// are kept beyond the compaction floor, the oldest are folded into the
/// live set.  Small enough to bound relay memory, large enough that a
/// peer syncing every few seconds never falls behind the floor in
/// practice.
const COMPACT_TAIL: usize = 128;

/// One origin domain's versioned advertisement log.
///
/// Holds the retained tail of entries (everything after the compaction
/// `floor`) plus the live pool set, which together can answer any peer:
/// an incremental tail for peers past the floor, a full snapshot for
/// peers behind it (or on a different epoch).
#[derive(Debug, Clone)]
pub struct OriginLog {
    /// The origin's log epoch; a restarted origin starts a higher one.
    epoch: u64,
    /// Highest sequence number assigned (0 = empty log).
    head: u64,
    /// Entries at or below this sequence have been compacted away.
    floor: u64,
    /// Entries with `floor < seq <= head`, in increasing order.
    tail: Vec<AdvertEntry>,
    /// pool → sequence of the entry that (last) brought it alive.
    live: BTreeMap<String, u64>,
}

impl OriginLog {
    fn new(epoch: u64) -> Self {
        OriginLog {
            epoch,
            head: 0,
            floor: 0,
            tail: Vec::new(),
            live: BTreeMap::new(),
        }
    }

    /// Appends one event to an *authoritative* (own-domain) log.
    fn append(&mut self, pool: &str, alive: bool) {
        self.head += 1;
        self.tail.push(AdvertEntry {
            seq: self.head,
            pool: pool.to_string(),
            alive,
        });
        if alive {
            self.live.insert(pool.to_string(), self.head);
        } else {
            self.live.remove(pool);
        }
        self.compact();
    }

    /// Folds the oldest retained entries into the live set once the tail
    /// outgrows [`COMPACT_TAIL`]; peers behind the new floor get full
    /// snapshots instead of tails.
    fn compact(&mut self) {
        if self.tail.len() > COMPACT_TAIL {
            let drop = self.tail.len() - COMPACT_TAIL;
            self.floor = self.tail[drop - 1].seq;
            self.tail.drain(..drop);
        }
    }

    /// The complete live set as a snapshot delta (`full: true`).
    fn snapshot(&self, origin: &str) -> AdvertDelta {
        let mut entries: Vec<AdvertEntry> = self
            .live
            .iter()
            .map(|(pool, seq)| AdvertEntry {
                seq: *seq,
                pool: pool.clone(),
                alive: true,
            })
            .collect();
        entries.sort_by_key(|e| e.seq);
        AdvertDelta {
            origin: origin.to_string(),
            epoch: self.epoch,
            head: self.head,
            entries,
            full: true,
        }
    }

    /// What a peer holding `(epoch, seq)` of this origin still lacks;
    /// `None` when it is up to date.
    fn delta_since(&self, origin: &str, epoch: u64, seq: u64) -> Option<AdvertDelta> {
        if epoch != self.epoch {
            // Different epoch: everything the peer has for this origin is
            // invalid (or from a past life of ours); resend the world.
            // An empty log must still ship once the peer claims entries,
            // or the peer would hold the stale epoch's live set forever.
            return (self.head > 0 || !self.live.is_empty() || seq > 0)
                .then(|| self.snapshot(origin));
        }
        if seq >= self.head {
            return None;
        }
        if seq < self.floor {
            // Behind the compaction floor: the tail alone cannot catch
            // the peer up.
            return Some(self.snapshot(origin));
        }
        let entries: Vec<AdvertEntry> = self.tail.iter().filter(|e| e.seq > seq).cloned().collect();
        Some(AdvertDelta {
            origin: origin.to_string(),
            epoch: self.epoch,
            head: self.head,
            entries,
            full: false,
        })
    }
}

/// A directory-relevant change surfaced by applying gossip deltas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GossipEvent {
    /// `origin` now hosts `pool`.
    PoolUp {
        /// The domain the pool lives in.
        origin: String,
        /// Full pool name.
        pool: String,
    },
    /// `origin` no longer hosts `pool` — any cached route to it is dead.
    PoolDown {
        /// The domain the pool lived in.
        origin: String,
        /// Full pool name.
        pool: String,
    },
    /// Everything previously known about `origin` is invalid (it
    /// restarted with a new epoch, or a full snapshot replaced the known
    /// set).  `PoolUp` events for the fresh set follow.
    OriginReset {
        /// The domain that restarted.
        origin: String,
    },
}

/// Every origin log one daemon holds: its own (authoritative) plus one
/// per origin learned from peers (relayed transitively).
#[derive(Debug, Default)]
pub struct AdvertLog {
    origins: BTreeMap<String, OriginLog>,
}

impl AdvertLog {
    /// The version vector: what this holder has of every origin.
    pub fn version_vector(&self) -> Vec<AdvertVersion> {
        self.origins
            .iter()
            .map(|(origin, log)| AdvertVersion {
                origin: origin.clone(),
                epoch: log.epoch,
                seq: log.head,
            })
            .collect()
    }

    /// Deltas carrying everything a holder of `have` lacks.
    pub fn deltas_since(&self, have: &[AdvertVersion]) -> Vec<AdvertDelta> {
        self.origins
            .iter()
            .filter_map(|(origin, log)| {
                let (epoch, seq) = have
                    .iter()
                    .find(|v| v.origin == *origin)
                    .map(|v| (v.epoch, v.seq))
                    .unwrap_or((log.epoch, 0));
                log.delta_since(origin, epoch, seq)
            })
            .collect()
    }

    /// Applies one delta to the log of `delta.origin`, returning the
    /// directory-relevant events.  Idempotent: entries already applied
    /// (or from a stale epoch) are skipped without events.
    pub fn apply(&mut self, delta: &AdvertDelta) -> Vec<GossipEvent> {
        let mut events = Vec::new();
        let log = self
            .origins
            .entry(delta.origin.clone())
            .or_insert_with(|| OriginLog::new(delta.epoch));
        if delta.epoch < log.epoch {
            return events;
        }
        if delta.epoch > log.epoch {
            // The origin restarted.  An incremental tail from the new
            // epoch whose base we never saw cannot be interpreted —
            // ignore it and let the next version-vector exchange deliver
            // the full snapshot.
            let interpretable = delta.full || delta.entries.first().is_none_or(|e| e.seq <= 1);
            if !interpretable {
                return events;
            }
            events.push(GossipEvent::OriginReset {
                origin: delta.origin.clone(),
            });
            for pool in log.live.keys() {
                events.push(GossipEvent::PoolDown {
                    origin: delta.origin.clone(),
                    pool: pool.clone(),
                });
            }
            *log = OriginLog::new(delta.epoch);
        } else if delta.full {
            // Same epoch, snapshot: one whose horizon is behind what we
            // already hold is old news relayed late — applying it would
            // resurrect pools that died after its horizon.  Skip it.
            if delta.head < log.head {
                return events;
            }
        } else {
            // Same epoch, incremental: a tail starting above head+1 has
            // a gap we cannot bridge — skip it, our version vector stays
            // behind and the authoritative exchange resends from there.
            if delta.entries.first().is_some_and(|e| e.seq > log.head + 1) {
                return events;
            }
        }
        for entry in &delta.entries {
            if entry.seq <= log.head && !delta.full {
                continue;
            }
            let known = log.live.contains_key(&entry.pool);
            if entry.alive && !known {
                events.push(GossipEvent::PoolUp {
                    origin: delta.origin.clone(),
                    pool: entry.pool.clone(),
                });
            }
            if !entry.alive && known {
                events.push(GossipEvent::PoolDown {
                    origin: delta.origin.clone(),
                    pool: entry.pool.clone(),
                });
            }
            if entry.seq > log.head {
                log.tail.push(entry.clone());
                log.head = entry.seq;
            }
            if entry.alive {
                log.live.insert(entry.pool.clone(), entry.seq);
            } else {
                log.live.remove(&entry.pool);
            }
        }
        if delta.full {
            // The snapshot is the origin's complete live set up to its
            // head: any pool we hold from at or below that horizon that
            // the snapshot omits is dead (its death was compacted away).
            let stale: Vec<String> = log
                .live
                .iter()
                .filter(|(pool, seq)| {
                    **seq <= delta.head && !delta.entries.iter().any(|e| e.pool == **pool)
                })
                .map(|(pool, _)| pool.clone())
                .collect();
            for pool in stale {
                log.live.remove(&pool);
                events.push(GossipEvent::PoolDown {
                    origin: delta.origin.clone(),
                    pool,
                });
            }
            // A snapshot carries no tail history: relaying it to others
            // also produces snapshots.
            log.head = log.head.max(delta.head);
            log.floor = log.head;
            log.tail.clear();
        }
        log.compact();
        events
    }

    /// Drops everything known about `origin` (a peer renamed its domain;
    /// the old name's pools are retired wholesale).
    pub fn forget(&mut self, origin: &str) {
        self.origins.remove(origin);
    }

    /// The live pool set held for `origin` (empty when unknown).
    pub fn live_pools(&self, origin: &str) -> Vec<String> {
        self.origins
            .get(origin)
            .map(|log| log.live.keys().cloned().collect())
            .unwrap_or_default()
    }
}

/// Interior state of [`GossipPlane`] under one lock: the logs plus the
/// per-peer acked version vectors.
#[derive(Debug, Default)]
struct PlaneState {
    log: AdvertLog,
    /// peer domain → the version vector the peer is known to hold, from
    /// its explicit `have` vectors and from acked anti-entropy rounds.
    /// Piggybacked deltas do NOT advance this — they may be lost with
    /// their carrier reply, so only acknowledged state counts, and
    /// resending an already-applied delta is harmless (application is
    /// idempotent).
    acked: BTreeMap<String, Vec<AdvertVersion>>,
}

/// One daemon's gossip state: its advertisement logs, what each peer has
/// acked, and the delta traffic counters.
#[derive(Debug)]
pub struct GossipPlane {
    domain: String,
    state: Mutex<PlaneState>,
    deltas_in: AtomicU64,
    deltas_out: AtomicU64,
}

/// Highest own-log epoch any plane in this process has opened.  Epochs
/// are drawn from wall-clock seconds, so two daemons created within the
/// same second — an in-process restart, or every test that rebuilds a
/// fleet — would otherwise share an epoch, and a stale relay of the old
/// life's log (same epoch, higher sequence) could resurrect retired
/// pools at every peer.  The new epoch is forced strictly above the
/// last one issued here.
static LAST_EPOCH: AtomicU64 = AtomicU64::new(0);

impl GossipPlane {
    /// A plane for `domain`, opening the own-origin log at an epoch drawn
    /// from the wall clock — a restarted daemon starts a strictly higher
    /// epoch, which is what invalidates its previous life's entries at
    /// every peer.  Strict monotonicity against every epoch previously
    /// issued in this process is enforced even when the clock has not
    /// advanced (or stepped backwards).
    pub fn new(domain: &str) -> Self {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(1)
            .max(1);
        let last = LAST_EPOCH
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |last| {
                Some(now.max(last + 1))
            })
            .unwrap_or(0);
        Self::with_epoch(domain, now.max(last + 1))
    }

    /// A plane with an explicit own-log epoch (tests pin epochs to drive
    /// restart handling deterministically).
    pub fn with_epoch(domain: &str, epoch: u64) -> Self {
        let mut state = PlaneState::default();
        state
            .log
            .origins
            .insert(domain.to_string(), OriginLog::new(epoch));
        GossipPlane {
            domain: domain.to_string(),
            state: Mutex::new(state),
            deltas_in: AtomicU64::new(0),
            deltas_out: AtomicU64::new(0),
        }
    }

    /// The domain this plane is authoritative for.
    pub fn domain(&self) -> &str {
        &self.domain
    }

    /// Diffs the current local pool set against the own-origin log and
    /// appends entries for anything that came up or went away.  Called
    /// before building any outbound delta, so news is never older than
    /// the frame carrying it.
    pub fn refresh_local(&self, pools: &[String]) {
        let mut state = self.state.lock();
        let log = state
            .log
            .origins
            .get_mut(&self.domain)
            .expect("own origin log exists");
        let current: HashSet<&str> = pools.iter().map(String::as_str).collect();
        let dead: Vec<String> = (log.live.keys())
            .filter(|p| !current.contains(p.as_str()))
            .cloned()
            .collect();
        for pool in dead {
            log.append(&pool, false);
        }
        for pool in pools {
            if !log.live.contains_key(pool) {
                log.append(pool, true);
            }
        }
    }

    /// This daemon's version vector (the `have` field of outbound
    /// frames).
    pub fn version_vector(&self) -> Vec<AdvertVersion> {
        self.state.lock().log.version_vector()
    }

    /// Deltas for a peer that declared `have`, counted as shipped.
    pub fn deltas_since(&self, have: &[AdvertVersion]) -> Vec<AdvertDelta> {
        let deltas = self.state.lock().log.deltas_since(have);
        self.deltas_out
            .fetch_add(deltas.len() as u64, Ordering::Relaxed);
        deltas
    }

    /// Deltas for `peer` judged against its acked vector — what the
    /// anti-entropy round and the piggyback paths ship when the peer has
    /// not just declared a fresh `have`.
    pub fn deltas_for_peer(&self, peer: &str) -> Vec<AdvertDelta> {
        let state = self.state.lock();
        let have = state.acked.get(peer).cloned().unwrap_or_default();
        let deltas = state.log.deltas_since(&have);
        drop(state);
        self.deltas_out
            .fetch_add(deltas.len() as u64, Ordering::Relaxed);
        deltas
    }

    /// Records the version vector `peer` declared (its `have` field):
    /// ground truth of what it holds, so subsequent deltas to it carry
    /// only the missing tail.
    pub fn note_peer_versions(&self, peer: &str, have: &[AdvertVersion]) {
        self.state
            .lock()
            .acked
            .insert(peer.to_string(), have.to_vec());
    }

    /// Marks `peer` as holding everything in `vector` — called when an
    /// anti-entropy round it participated in completes.
    pub fn note_acked(&self, peer: &str, vector: Vec<AdvertVersion>) {
        self.state.lock().acked.insert(peer.to_string(), vector);
    }

    /// Forgets what `peer` holds (its link died; after the redial the
    /// handshake resyncs from scratch).
    pub fn retire_peer(&self, peer: &str) {
        self.state.lock().acked.remove(peer);
    }

    /// Applies inbound deltas, skipping the own origin (this daemon is
    /// authoritative for it — a relayed echo of our own log must never
    /// loop back in).  Returns the directory-relevant events.
    ///
    /// An own-origin echo from a *previous life* of this daemon — one
    /// carrying an epoch above ours, or our epoch with a head beyond
    /// anything this life has produced (possible when a restart reused a
    /// wall-clock second, or the clock stepped back across a real
    /// restart) — would dominate this life's entries at every peer,
    /// resurrecting retired pools.  The defense is to re-epoch the own
    /// log strictly above the echo, which resets everything peers hold
    /// for this origin in our favour.  Echoes of *this* life (same
    /// epoch, head at or below ours — the normal anti-entropy case) are
    /// simply skipped: we are authoritative for them.
    pub fn apply(&self, deltas: &[AdvertDelta]) -> Vec<GossipEvent> {
        let mut events = Vec::new();
        let mut state = self.state.lock();
        for delta in deltas {
            if delta.origin == self.domain {
                let log = state
                    .log
                    .origins
                    .get_mut(&self.domain)
                    .expect("own-origin log always present");
                let previous_life =
                    delta.epoch > log.epoch || (delta.epoch == log.epoch && delta.head > log.head);
                if previous_life {
                    let bumped = delta.epoch + 1;
                    let live: Vec<String> = log.live.keys().cloned().collect();
                    *log = OriginLog::new(bumped);
                    for pool in &live {
                        log.append(pool, true);
                    }
                    let _ = LAST_EPOCH.fetch_max(bumped, Ordering::SeqCst);
                }
                continue;
            }
            self.deltas_in.fetch_add(1, Ordering::Relaxed);
            events.extend(state.log.apply(delta));
        }
        events
    }

    /// Drops everything known about `origin` and any acked state for it
    /// as a peer (domain rename retirement).
    pub fn forget_origin(&self, origin: &str) {
        let mut state = self.state.lock();
        state.log.forget(origin);
        state.acked.remove(origin);
    }

    /// The live pool set held for `origin`.
    pub fn live_pools(&self, origin: &str) -> Vec<String> {
        self.state.lock().log.live_pools(origin)
    }

    /// Lifetime deltas applied from peers.
    pub fn deltas_in(&self) -> u64 {
        self.deltas_in.load(Ordering::Relaxed)
    }

    /// Lifetime deltas shipped to peers.
    pub fn deltas_out(&self) -> u64 {
        self.deltas_out.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vv(plane: &GossipPlane) -> Vec<AdvertVersion> {
        plane.version_vector()
    }

    /// One exchange: `from` ships what `to` lacks (judged by `to`'s real
    /// vector), `to` applies.  Returns the events at `to`.
    fn exchange(from: &GossipPlane, to: &GossipPlane) -> Vec<GossipEvent> {
        let deltas = from.deltas_since(&vv(to));
        to.apply(&deltas)
    }

    #[test]
    fn a_pool_travels_one_exchange_and_application_is_idempotent() {
        let a = GossipPlane::with_epoch("a", 10);
        let b = GossipPlane::with_epoch("b", 20);
        a.refresh_local(&["arch,==/sun".to_string()]);

        let events = exchange(&a, &b);
        assert_eq!(
            events,
            vec![GossipEvent::PoolUp {
                origin: "a".to_string(),
                pool: "arch,==/sun".to_string(),
            }]
        );
        assert_eq!(b.live_pools("a"), vec!["arch,==/sun".to_string()]);

        // Replaying the same delta produces no events and no change.
        let replay = a.deltas_since(&[]);
        assert!(b.apply(&replay).is_empty());
        assert_eq!(b.live_pools("a"), vec!["arch,==/sun".to_string()]);

        // Up to date: nothing left to ship.
        assert!(a.deltas_since(&vv(&b)).is_empty());
    }

    /// The order a refresh appends in is part of every gossip digest:
    /// pools gone, in log order, then pools new, in argument order.
    #[test]
    fn refresh_appends_deaths_in_log_order_then_births_in_argument_order() {
        let a = GossipPlane::with_epoch("a", 10);
        let names = |list: &[&str]| list.iter().map(|p| p.to_string()).collect::<Vec<_>>();
        a.refresh_local(&names(&["p3", "p1", "p2"]));
        let have = a.version_vector();
        a.refresh_local(&names(&["p4", "p2", "p0", "p4"]));
        let appended: Vec<(String, bool)> = (a.deltas_since(&have).into_iter())
            .flat_map(|delta| delta.entries)
            .map(|entry| (entry.pool, entry.alive))
            .collect();
        let expected = [("p1", false), ("p3", false), ("p4", true), ("p0", true)];
        let expected: Vec<(String, bool)> = (expected.iter())
            .map(|&(pool, alive)| (pool.to_string(), alive))
            .collect();
        assert_eq!(appended, expected);
    }

    #[test]
    fn pool_death_travels_and_retires_the_record() {
        let a = GossipPlane::with_epoch("a", 10);
        let b = GossipPlane::with_epoch("b", 20);
        a.refresh_local(&["arch,==/sun".to_string(), "arch,==/sgi".to_string()]);
        exchange(&a, &b);
        assert_eq!(b.live_pools("a").len(), 2);

        a.refresh_local(&["arch,==/sun".to_string()]);
        let events = exchange(&a, &b);
        assert_eq!(
            events,
            vec![GossipEvent::PoolDown {
                origin: "a".to_string(),
                pool: "arch,==/sgi".to_string(),
            }]
        );
        assert_eq!(b.live_pools("a"), vec!["arch,==/sun".to_string()]);
    }

    #[test]
    fn news_relays_transitively_through_a_middle_domain() {
        let a = GossipPlane::with_epoch("a", 1);
        let b = GossipPlane::with_epoch("b", 2);
        let c = GossipPlane::with_epoch("c", 3);
        c.refresh_local(&["arch,==/hp".to_string()]);

        // C → B, then B → A: A learns C's pool without a C link.
        exchange(&c, &b);
        let events = exchange(&b, &a);
        assert!(events.contains(&GossipEvent::PoolUp {
            origin: "c".to_string(),
            pool: "arch,==/hp".to_string(),
        }));
        assert_eq!(a.live_pools("c"), vec!["arch,==/hp".to_string()]);
    }

    #[test]
    fn a_restarted_origin_resets_what_peers_hold() {
        let a1 = GossipPlane::with_epoch("a", 100);
        let b = GossipPlane::with_epoch("b", 5);
        a1.refresh_local(&["arch,==/sun".to_string()]);
        exchange(&a1, &b);

        // A restarts with different pools and a higher epoch.
        let a2 = GossipPlane::with_epoch("a", 200);
        a2.refresh_local(&["arch,==/sgi".to_string()]);
        let events = exchange(&a2, &b);
        assert!(events.contains(&GossipEvent::OriginReset {
            origin: "a".to_string(),
        }));
        assert!(events.contains(&GossipEvent::PoolDown {
            origin: "a".to_string(),
            pool: "arch,==/sun".to_string(),
        }));
        assert_eq!(b.live_pools("a"), vec!["arch,==/sgi".to_string()]);

        // A stale delta from the old life is ignored outright.
        let stale = a1.deltas_since(&[]);
        assert!(b.apply(&stale).is_empty());
        assert_eq!(b.live_pools("a"), vec!["arch,==/sgi".to_string()]);
    }

    #[test]
    fn own_origin_echoes_never_loop_back() {
        let a = GossipPlane::with_epoch("a", 1);
        let b = GossipPlane::with_epoch("b", 2);
        a.refresh_local(&["arch,==/sun".to_string()]);
        exchange(&a, &b);
        // B relays A's log back at A: no events, no double counting.
        let echo = b.deltas_since(&[]);
        assert!(echo.iter().any(|d| d.origin == "a"));
        assert!(a.apply(&echo).is_empty());
    }

    #[test]
    fn compaction_forces_full_snapshots_for_peers_behind_the_floor() {
        let a = GossipPlane::with_epoch("a", 1);
        let b = GossipPlane::with_epoch("b", 2);
        // Hold B's view of A at seq 0, then churn A's log far past the
        // compaction bound.
        let b_view_before = vv(&b);
        for round in 0..((COMPACT_TAIL as u64) * 2) {
            let pool = format!("arch,==/gen{}", round % 7);
            a.refresh_local(&[pool]);
        }
        a.refresh_local(&["arch,==/final".to_string()]);

        let deltas = a.deltas_since(&b_view_before);
        let own: Vec<_> = deltas.iter().filter(|d| d.origin == "a").collect();
        assert_eq!(own.len(), 1);
        assert!(own[0].full, "a peer behind the floor gets a snapshot");
        b.apply(&deltas);
        assert_eq!(b.live_pools("a"), vec!["arch,==/final".to_string()]);
        // And B is now fully caught up.
        assert!(a.deltas_since(&vv(&b)).is_empty());
    }

    #[test]
    fn full_snapshots_retire_pools_the_receiver_holds_but_the_origin_lost() {
        let a = GossipPlane::with_epoch("a", 1);
        let b = GossipPlane::with_epoch("b", 2);
        a.refresh_local(&["arch,==/sun".to_string(), "arch,==/sgi".to_string()]);
        exchange(&a, &b);

        // A retires sgi, then compacts the death away entirely.
        a.refresh_local(&["arch,==/sun".to_string()]);
        for round in 0..((COMPACT_TAIL as u64) * 2) {
            a.refresh_local(&[
                "arch,==/sun".to_string(),
                format!("arch,==/churn{}", round % 5),
            ]);
        }
        a.refresh_local(&["arch,==/sun".to_string()]);

        let events = exchange(&a, &b);
        assert!(events.contains(&GossipEvent::PoolDown {
            origin: "a".to_string(),
            pool: "arch,==/sgi".to_string(),
        }));
        assert_eq!(b.live_pools("a"), vec!["arch,==/sun".to_string()]);
    }

    #[test]
    fn forgetting_an_origin_drops_its_pools_and_acked_state() {
        let a = GossipPlane::with_epoch("a", 1);
        let b = GossipPlane::with_epoch("b", 2);
        a.refresh_local(&["arch,==/sun".to_string()]);
        exchange(&a, &b);
        b.note_peer_versions("a", &vv(&a));

        b.forget_origin("a");
        assert!(b.live_pools("a").is_empty());
        // A full resync flows on the next exchange.
        let events = exchange(&a, &b);
        assert!(events.contains(&GossipEvent::PoolUp {
            origin: "a".to_string(),
            pool: "arch,==/sun".to_string(),
        }));
    }

    #[test]
    fn acked_vectors_suppress_resends_until_retired() {
        let a = GossipPlane::with_epoch("a", 1);
        a.refresh_local(&["arch,==/sun".to_string()]);
        assert!(!a.deltas_for_peer("b").is_empty());

        a.note_acked("b", a.version_vector());
        assert!(a.deltas_for_peer("b").is_empty(), "peer is caught up");

        a.refresh_local(&["arch,==/sun".to_string(), "arch,==/sgi".to_string()]);
        let fresh = a.deltas_for_peer("b");
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].entries.len(), 1, "only the missing tail ships");

        a.retire_peer("b");
        let resync = a.deltas_for_peer("b");
        assert_eq!(
            resync[0].entries.len(),
            2,
            "after link death everything reships"
        );
    }

    #[test]
    fn counters_track_delta_traffic() {
        let a = GossipPlane::with_epoch("a", 1);
        let b = GossipPlane::with_epoch("b", 2);
        a.refresh_local(&["arch,==/sun".to_string()]);
        exchange(&a, &b);
        assert!(a.deltas_out() >= 1);
        assert!(b.deltas_in() >= 1);
        assert_eq!(b.deltas_out(), 0);
    }
}
