//! The PUNCH virtual file system (mount manager).
//!
//! "Then, the virtual file system service mounts the application and data
//! disks on to the selected machine.  […]  Once the run is complete, the
//! virtual file system service unmounts the application and data disks"
//! (Section 2).  Every machine record carries the TCP port of its PVFS
//! mount manager (field 15); this module tracks the mounts the desktop
//! establishes through those managers.

use std::collections::BTreeMap;

use actyp_grid::MachineId;

/// One mounted disk on one machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MountRecord {
    /// The machine the disk is mounted on.
    pub machine: MachineId,
    /// What is mounted (`application:<tool>` or `data:<provider>/<login>`).
    pub source: String,
    /// Mount point on the machine.
    pub mount_point: String,
    /// Access key of the session the mount belongs to.
    pub session_key: String,
}

/// Why a mount operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MountError {
    /// The same source is already mounted for this session.
    AlreadyMounted(String),
    /// Unmount of something that is not mounted.
    NotMounted(String),
}

impl std::fmt::Display for MountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MountError::AlreadyMounted(s) => write!(f, "`{s}` is already mounted"),
            MountError::NotMounted(s) => write!(f, "`{s}` is not mounted"),
        }
    }
}

impl std::error::Error for MountError {}

/// The mount manager bookkeeping for one deployment.
#[derive(Debug, Clone, Default)]
pub struct MountManager {
    mounts: BTreeMap<(String, String), MountRecord>,
    mounted_total: u64,
    unmounted_total: u64,
}

impl MountManager {
    /// An empty mount manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mounts `source` on `machine` for the session identified by
    /// `session_key`.
    pub fn mount(
        &mut self,
        machine: MachineId,
        session_key: &str,
        source: &str,
    ) -> Result<MountRecord, MountError> {
        let key = (session_key.to_string(), source.to_string());
        if self.mounts.contains_key(&key) {
            return Err(MountError::AlreadyMounted(source.to_string()));
        }
        let record = MountRecord {
            machine,
            source: source.to_string(),
            mount_point: format!("/punch/{session_key}/{}", source.replace([':', '/'], "_")),
            session_key: session_key.to_string(),
        };
        self.mounts.insert(key, record.clone());
        self.mounted_total += 1;
        Ok(record)
    }

    /// Unmounts `source` for the session.
    #[cfg(test)]
    pub fn unmount(&mut self, session_key: &str, source: &str) -> Result<(), MountError> {
        match self
            .mounts
            .remove(&(session_key.to_string(), source.to_string()))
        {
            Some(_) => {
                self.unmounted_total += 1;
                Ok(())
            }
            None => Err(MountError::NotMounted(source.to_string())),
        }
    }

    /// Unmounts everything belonging to a session; returns how many mounts
    /// were removed.
    pub fn unmount_session(&mut self, session_key: &str) -> usize {
        let keys: Vec<_> = self
            .mounts
            .keys()
            .filter(|(s, _)| s == session_key)
            .cloned()
            .collect();
        for key in &keys {
            self.mounts.remove(key);
            self.unmounted_total += 1;
        }
        keys.len()
    }

    /// Active mounts for a session.
    #[cfg(test)]
    pub fn session_mounts(&self, session_key: &str) -> Vec<&MountRecord> {
        self.mounts
            .values()
            .filter(|m| m.session_key == session_key)
            .collect()
    }

    /// Number of active mounts across all sessions.
    pub fn active(&self) -> usize {
        self.mounts.len()
    }

    /// Total mounts performed over the manager's lifetime.
    pub fn mounted_total(&self) -> u64 {
        self.mounted_total
    }

    /// Total unmounts performed over the manager's lifetime.
    pub fn unmounted_total(&self) -> u64 {
        self.unmounted_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mount_and_unmount_cycle() {
        let mut vfs = MountManager::new();
        let m = vfs
            .mount(MachineId(3), "key-1", "application:spice")
            .unwrap();
        assert_eq!(m.machine, MachineId(3));
        assert!(m.mount_point.starts_with("/punch/key-1/"));
        assert_eq!(vfs.active(), 1);
        vfs.unmount("key-1", "application:spice").unwrap();
        assert_eq!(vfs.active(), 0);
        assert_eq!(vfs.mounted_total(), 1);
        assert_eq!(vfs.unmounted_total(), 1);
    }

    #[test]
    fn double_mount_is_rejected() {
        let mut vfs = MountManager::new();
        vfs.mount(MachineId(1), "k", "data:storage/kapadia")
            .unwrap();
        assert_eq!(
            vfs.mount(MachineId(1), "k", "data:storage/kapadia")
                .unwrap_err(),
            MountError::AlreadyMounted("data:storage/kapadia".to_string())
        );
    }

    #[test]
    fn unmount_of_unknown_source_is_rejected() {
        let mut vfs = MountManager::new();
        assert_eq!(
            vfs.unmount("k", "application:spice").unwrap_err(),
            MountError::NotMounted("application:spice".to_string())
        );
    }

    #[test]
    fn sessions_are_isolated() {
        let mut vfs = MountManager::new();
        vfs.mount(MachineId(1), "a", "application:spice").unwrap();
        vfs.mount(MachineId(1), "b", "application:spice").unwrap();
        vfs.mount(MachineId(1), "b", "data:storage/royo").unwrap();
        assert_eq!(vfs.session_mounts("a").len(), 1);
        assert_eq!(vfs.session_mounts("b").len(), 2);
        assert_eq!(vfs.unmount_session("b"), 2);
        assert_eq!(vfs.active(), 1);
        assert_eq!(vfs.unmount_session("missing"), 0);
    }
}
