//! Execution units and run sessions.
//!
//! Every machine runs a PUNCH *execution unit* daemon listening on the port
//! recorded in field 14 of the resource database.  The desktop contacts it
//! with the session access key to launch the application; for tools with a
//! graphical interface the display is routed back to the user's browser via
//! a remote-display session (VNC in the production system).  This module
//! models the daemon far enough to track run state transitions and elapsed
//! CPU time.

use actyp_grid::MachineId;
use actyp_simnet::{SimDuration, SimTime};

/// The lifecycle state of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Accepted by the execution unit but not yet started.
    Pending,
    /// Running on the machine.
    Running,
    /// Finished successfully.
    Completed,
    /// Terminated by the user or by a failure.
    Aborted,
}

/// One run session tracked by an execution unit.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSession {
    /// The machine the run executes on.
    pub machine: MachineId,
    /// The tool being run.
    pub tool: String,
    /// Session access key (shared with the mount manager and the desktop).
    pub session_key: String,
    /// Whether the display is routed to the user's browser.
    pub remote_display: bool,
    /// Current state.
    pub state: SessionState,
    /// When the run started, if it has.
    pub started_at: Option<SimTime>,
    /// CPU time consumed so far (reference-machine seconds).
    pub cpu_seconds: f64,
}

/// The execution-unit daemon of one machine.
#[derive(Debug, Clone)]
pub struct ExecutionUnit {
    machine: MachineId,
    port: u16,
    sessions: Vec<RunSession>,
}

impl ExecutionUnit {
    /// Creates the execution unit for a machine.
    pub fn new(machine: MachineId, port: u16) -> Self {
        ExecutionUnit {
            machine,
            port,
            sessions: Vec::new(),
        }
    }

    /// The TCP port the unit listens on.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Accepts a run, returning its index within the unit.
    pub fn accept(&mut self, tool: &str, session_key: &str, remote_display: bool) -> usize {
        self.sessions.push(RunSession {
            machine: self.machine,
            tool: tool.to_string(),
            session_key: session_key.to_string(),
            remote_display,
            state: SessionState::Pending,
            started_at: None,
            cpu_seconds: 0.0,
        });
        self.sessions.len() - 1
    }

    /// Starts a pending run at virtual time `now`.  Returns `false` if the
    /// run is not pending.
    pub fn start(&mut self, index: usize, now: SimTime) -> bool {
        match self.sessions.get_mut(index) {
            Some(s) if s.state == SessionState::Pending => {
                s.state = SessionState::Running;
                s.started_at = Some(now);
                true
            }
            _ => false,
        }
    }

    /// Completes a running run, crediting it with `cpu` of compute time.
    pub fn complete(&mut self, index: usize, cpu: SimDuration) -> bool {
        match self.sessions.get_mut(index) {
            Some(s) if s.state == SessionState::Running => {
                s.state = SessionState::Completed;
                s.cpu_seconds = cpu.as_secs_f64();
                true
            }
            _ => false,
        }
    }

    /// Aborts a pending or running run.
    #[cfg(test)]
    pub fn abort(&mut self, index: usize) -> bool {
        match self.sessions.get_mut(index) {
            Some(s) if s.state == SessionState::Pending || s.state == SessionState::Running => {
                s.state = SessionState::Aborted;
                true
            }
            _ => false,
        }
    }

    /// The session at `index`, if any.
    pub fn session(&self, index: usize) -> Option<&RunSession> {
        self.sessions.get(index)
    }

    /// Number of sessions in the given state.
    pub fn count(&self, state: SessionState) -> usize {
        self.sessions.iter().filter(|s| s.state == state).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> ExecutionUnit {
        ExecutionUnit::new(MachineId(7), 7070)
    }

    #[test]
    fn run_lifecycle_happy_path() {
        let mut eu = unit();
        let idx = eu.accept("spice", "key-1", true);
        assert_eq!(eu.session(idx).unwrap().state, SessionState::Pending);
        assert!(eu.start(idx, SimTime::from_nanos(10)));
        assert_eq!(eu.session(idx).unwrap().state, SessionState::Running);
        assert!(eu.complete(idx, SimDuration::from_secs(42)));
        let s = eu.session(idx).unwrap();
        assert_eq!(s.state, SessionState::Completed);
        assert_eq!(s.cpu_seconds, 42.0);
        assert!(s.remote_display);
        assert_eq!(eu.port(), 7070);
    }

    #[test]
    fn invalid_transitions_are_rejected() {
        let mut eu = unit();
        let idx = eu.accept("spice", "key-1", false);
        assert!(
            !eu.complete(idx, SimDuration::from_secs(1)),
            "cannot complete a pending run"
        );
        assert!(eu.start(idx, SimTime::ZERO));
        assert!(!eu.start(idx, SimTime::ZERO), "cannot start twice");
        assert!(eu.complete(idx, SimDuration::from_secs(1)));
        assert!(!eu.abort(idx), "cannot abort a completed run");
        assert!(!eu.start(999, SimTime::ZERO), "unknown index");
    }

    #[test]
    fn abort_works_from_pending_and_running() {
        let mut eu = unit();
        let a = eu.accept("spice", "k1", false);
        let b = eu.accept("spice", "k2", false);
        eu.start(b, SimTime::ZERO);
        assert!(eu.abort(a));
        assert!(eu.abort(b));
        assert_eq!(eu.count(SessionState::Aborted), 2);
    }

    #[test]
    fn counts_by_state() {
        let mut eu = unit();
        for i in 0..5 {
            let idx = eu.accept("minimos", &format!("k{i}"), false);
            if i % 2 == 0 {
                eu.start(idx, SimTime::ZERO);
            }
        }
        assert_eq!(eu.count(SessionState::Running), 3);
        assert_eq!(eu.count(SessionState::Pending), 2);
    }
}
