//! The per-machine record of the PUNCH resource database.
//!
//! Figure 3 of the paper lists twenty fields per machine.  They fall into
//! four groups: the availability state (field 1), dynamic state refreshed by
//! the monitoring system (fields 2–7), relatively static capacity information
//! (fields 8–11), and configuration/metadata (fields 12–20).  The record here
//! keeps the same grouping so the mapping back to the paper stays obvious.

use std::collections::BTreeMap;

use actyp_simnet::SimTime;

use crate::attr::AttrValue;
use crate::policy::UsagePolicy;
use crate::shadow::ShadowAccountPool;

/// Identifier of a machine inside a resource database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub u64);

impl std::fmt::Display for MachineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Field 1: the availability state of a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MachineState {
    /// The machine is reachable and accepting work.
    #[default]
    Up,
    /// The machine is unreachable.
    Down,
    /// The machine is administratively blocked from new work.
    Blocked,
}

/// Field 7: status flags of the PUNCH services on the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceFlags {
    /// The PUNCH execution unit daemon is running.
    pub execution_unit_up: bool,
    /// The PVFS mount manager is reachable.
    pub mount_manager_up: bool,
    /// The ActYP proxy server (used to start remote pools) is alive.
    pub proxy_up: bool,
}

impl ServiceFlags {
    /// All services healthy.
    pub fn all_up() -> Self {
        ServiceFlags {
            execution_unit_up: true,
            mount_manager_up: true,
            proxy_up: true,
        }
    }
}

/// Fields 2–7: dynamic state maintained by the resource monitoring service.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicState {
    /// Field 2: current load average.
    pub current_load: f64,
    /// Field 3: number of active jobs started through PUNCH.
    pub active_jobs: u32,
    /// Field 4: available physical memory, in megabytes.
    pub available_memory_mb: f64,
    /// Field 5: available swap, in megabytes.
    pub available_swap_mb: f64,
    /// Field 6: virtual time of the last monitoring update.
    pub last_update: SimTime,
    /// Field 7: PUNCH service status flags.
    pub service_flags: ServiceFlags,
}

impl Default for DynamicState {
    fn default() -> Self {
        DynamicState {
            current_load: 0.0,
            active_jobs: 0,
            available_memory_mb: 0.0,
            available_swap_mb: 0.0,
            last_update: SimTime::ZERO,
            service_flags: ServiceFlags::all_up(),
        }
    }
}

/// Field 12: access and audit information (the paper stores a pointer to a
/// file holding the ssh key, owner contact, and server start instructions).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MachineObject {
    /// Path-like reference to the credential used to reach the machine.
    pub ssh_key_ref: String,
    /// Owner / administrative contact.
    pub owner: String,
    /// Instructions for starting a PUNCH server on the machine.
    pub start_instructions: String,
}

/// A machine record: all twenty fields of Figure 3.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Database identifier (not a paper field; the paper keys on name).
    pub id: MachineId,
    /// Field 1: resource state.
    pub state: MachineState,
    /// Fields 2–7: monitored dynamic state.
    pub dynamic: DynamicState,
    /// Field 8: effective speed (a SPECfp-like rating relative to the
    /// reference machine used in run-time estimates).
    pub effective_speed: f64,
    /// Field 9: number of CPUs.
    pub num_cpus: u32,
    /// Field 10: maximum allowed load before the machine refuses new work.
    pub max_allowed_load: f64,
    /// Field 11: machine (host) name.
    pub name: String,
    /// Field 12: access and audit information.
    pub object: MachineObject,
    /// Field 13: shared account identifier (e.g. `nobody`), if any.
    pub shared_account: Option<String>,
    /// Field 14: TCP port of the PUNCH execution unit in the shared account.
    pub execution_unit_port: u16,
    /// Field 15: TCP port of the PVFS mount manager.
    pub pvfs_mount_port: u16,
    /// Field 16: user groups allowed to use this machine.
    pub user_groups: Vec<String>,
    /// Field 17: tool groups the machine can run.
    pub tool_groups: Vec<String>,
    /// Field 18: pool of shadow accounts available to PUNCH on this machine.
    pub shadow_accounts: ShadowAccountPool,
    /// Field 19: usage policy (the paper leaves this as a pointer to a
    /// PUNCH metaprogram; we use a small predicate language).
    pub usage_policy: UsagePolicy,
    /// Field 20: administrator-defined parameters (`arch`, `memory`,
    /// `ostype`, `osversion`, `owner`, `swap`, `cms`, `domain`, …).
    pub params: BTreeMap<String, AttrValue>,
}

impl Machine {
    /// Creates a minimally configured machine with the given id and name.
    /// Callers then fill in capacity and parameters via the builder methods.
    pub fn new(id: MachineId, name: impl Into<String>) -> Self {
        Machine {
            id,
            state: MachineState::Up,
            dynamic: DynamicState::default(),
            effective_speed: 100.0,
            num_cpus: 1,
            max_allowed_load: 4.0,
            name: name.into(),
            object: MachineObject::default(),
            shared_account: None,
            execution_unit_port: 7070,
            pvfs_mount_port: 7071,
            user_groups: Vec::new(),
            tool_groups: Vec::new(),
            shadow_accounts: ShadowAccountPool::default(),
            usage_policy: UsagePolicy::Always,
            params: BTreeMap::new(),
        }
    }

    /// Sets an administrator-defined parameter (builder style).
    pub fn with_param(mut self, key: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        self.params.insert(key.into(), value.into());
        self
    }

    /// Sets the user groups allowed on the machine (builder style).
    pub fn with_user_groups<I, S>(mut self, groups: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.user_groups = groups.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the tool groups supported by the machine (builder style).
    pub fn with_tool_groups<I, S>(mut self, groups: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.tool_groups = groups.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the capacity fields (builder style).
    pub fn with_capacity(mut self, speed: f64, cpus: u32, max_load: f64) -> Self {
        self.effective_speed = speed;
        self.num_cpus = cpus;
        self.max_allowed_load = max_load;
        self
    }

    /// Sets the usage policy (builder style).
    pub fn with_policy(mut self, policy: UsagePolicy) -> Self {
        self.usage_policy = policy;
        self
    }

    /// Whether the machine is up and below its administrative load ceiling.
    pub fn accepting_work(&self) -> bool {
        self.state == MachineState::Up && self.dynamic.current_load < self.max_allowed_load
    }

    /// Whether the machine allows members of `group` (an empty list means
    /// the machine is open to every group, mirroring the database default).
    pub fn allows_user_group(&self, group: &str) -> bool {
        self.user_groups.is_empty()
            || self
                .user_groups
                .iter()
                .any(|g| g.eq_ignore_ascii_case(group))
    }

    /// Whether the machine can run tools of `tool_group`.
    pub fn supports_tool_group(&self, tool_group: &str) -> bool {
        self.tool_groups.is_empty()
            || self
                .tool_groups
                .iter()
                .any(|g| g.eq_ignore_ascii_case(tool_group))
    }

    /// Looks up an attribute by name.  Administrator-defined parameters take
    /// precedence; the monitored and capacity fields are exposed under
    /// well-known names so queries like `punch.rsrc.load = <2` work without
    /// the administrator duplicating them.
    pub fn attribute(&self, key: &str) -> Option<AttrValue> {
        self.param(key)
            .cloned()
            .or_else(|| match self.builtin(key)? {
                Builtin::Num(n) => Some(AttrValue::Num(n)),
                Builtin::Text(s) => Some(AttrValue::str(s)),
            })
    }

    /// An administrator-defined parameter, borrowed.
    pub fn param(&self, key: &str) -> Option<&AttrValue> {
        self.params.get(key)
    }

    /// A builtin field under its well-known name, read in place.  A
    /// parameter of the same name shadows it in [`Machine::attribute`].
    pub fn builtin(&self, key: &str) -> Option<Builtin<'_>> {
        Some(match key {
            "load" => Builtin::Num(self.dynamic.current_load),
            "activejobs" => Builtin::Num(self.dynamic.active_jobs as f64),
            "availablememory" => Builtin::Num(self.dynamic.available_memory_mb),
            "availableswap" => Builtin::Num(self.dynamic.available_swap_mb),
            "speed" => Builtin::Num(self.effective_speed),
            "cpus" => Builtin::Num(self.num_cpus as f64),
            "maxload" => Builtin::Num(self.max_allowed_load),
            "name" => Builtin::Text(&self.name),
            "state" => Builtin::Text(match self.state {
                MachineState::Up => "up",
                MachineState::Down => "down",
                MachineState::Blocked => "blocked",
            }),
            _ => return None,
        })
    }
}

/// A builtin field of a machine, borrowed from the record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Builtin<'a> {
    /// A monitored or capacity field.
    Num(f64),
    /// The host name or the availability state.
    Text(&'a str),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(MachineId(1), "alpha01.ecn.purdue.edu")
            .with_param("arch", "sun")
            .with_param("memory", 512u64)
            .with_param("ostype", "solaris")
            .with_param("domain", "purdue")
            .with_capacity(300.0, 4, 8.0)
            .with_user_groups(["ece", "public"])
            .with_tool_groups(["spice", "tsuprem4"])
    }

    #[test]
    fn attribute_prefers_admin_params() {
        let m = machine().with_param("speed", 999u64);
        assert_eq!(m.attribute("speed"), Some(AttrValue::Num(999.0)));
    }

    #[test]
    fn attribute_exposes_builtin_fields() {
        let mut m = machine();
        m.dynamic.current_load = 1.5;
        m.dynamic.available_memory_mb = 100.0;
        assert_eq!(m.attribute("load"), Some(AttrValue::Num(1.5)));
        assert_eq!(m.attribute("availablememory"), Some(AttrValue::Num(100.0)));
        assert_eq!(m.attribute("cpus"), Some(AttrValue::Num(4.0)));
        assert_eq!(m.attribute("arch"), Some(AttrValue::str("sun")));
        assert_eq!(m.attribute("state"), Some(AttrValue::str("up")));
        assert_eq!(m.attribute("nonexistent"), None);
    }

    #[test]
    fn accepting_work_depends_on_state_and_load() {
        let mut m = machine();
        assert!(m.accepting_work());
        m.dynamic.current_load = 9.0;
        assert!(!m.accepting_work());
        m.dynamic.current_load = 0.0;
        m.state = MachineState::Blocked;
        assert!(!m.accepting_work());
        m.state = MachineState::Down;
        assert!(!m.accepting_work());
    }

    #[test]
    fn group_checks_are_case_insensitive_and_default_open() {
        let m = machine();
        assert!(m.allows_user_group("ECE"));
        assert!(!m.allows_user_group("physics"));
        assert!(m.supports_tool_group("Spice"));
        assert!(!m.supports_tool_group("matlab"));

        let open = Machine::new(MachineId(2), "open");
        assert!(open.allows_user_group("anyone"));
        assert!(open.supports_tool_group("anything"));
    }

    #[test]
    fn default_dynamic_state_has_services_up() {
        let m = Machine::new(MachineId(3), "x");
        assert!(m.dynamic.service_flags.execution_unit_up);
        assert!(m.dynamic.service_flags.mount_manager_up);
        assert_eq!(m.dynamic.last_update, SimTime::ZERO);
    }

    #[test]
    fn machine_id_displays_compactly() {
        assert_eq!(MachineId(42).to_string(), "m42");
    }
}
