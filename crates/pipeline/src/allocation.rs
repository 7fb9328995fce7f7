//! Allocation results and errors.
//!
//! The contract the paper describes is simple: "the network desktop simply
//! asks ActYP for resources (via a query language); and it gets back an IP
//! address, a TCP port number, and a session-specific access key."  An
//! [`Allocation`] is that reply, extended with the bookkeeping the desktop
//! needs to later release the resources (machine id, pool name, shadow
//! account uid).
//!
//! Since the API went over the wire these types are *protocol* types: they
//! are defined (with their binary codec) in [`actyp_proto::types`] and
//! re-exported here, so a client and a `ypd` daemon agree on them by
//! construction and in-process code keeps its familiar paths.

pub use actyp_proto::types::{Allocation, AllocationError, SessionKey};

/// Where a completion-style release
/// ([`ResourceManager::release_with`](crate::ResourceManager::release_with))
/// delivers its result: called at most once, on whichever thread finished
/// the release — in the pipeline, the thread that steps the stage dropping
/// the lease, possibly another caller's.  It must not wait on the
/// pipeline: a post it makes while its thread drains stages only queues,
/// so a wait for that post's answer would never return.
pub type ReleaseDone = Box<dyn FnOnce(Result<(), AllocationError>) + Send>;

/// Where an allocation
/// ([`ResourceManager::allocate_with`](crate::ResourceManager::allocate_with))
/// delivers its query's outcome: called exactly once, on whichever thread
/// has the outcome — in the pipeline, the thread that steps the stage
/// answering the query's last fragment: the caller itself when no other
/// thread is at that stage, else the one that is.  Like [`ReleaseDone`], it
/// must not wait on the pipeline, as a post from a draining thread only
/// queues.
pub type AllocateDone = Box<dyn FnOnce(Result<Vec<Allocation>, AllocationError>) + Send>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::RequestId;
    use actyp_grid::MachineId;

    #[test]
    fn session_keys_are_unique_per_nonce() {
        let a = SessionKey::derive(RequestId(1), 0, 42);
        let b = SessionKey::derive(RequestId(1), 0, 43);
        let c = SessionKey::derive(RequestId(2), 0, 42);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert!(a.to_string().starts_with("actyp-"));
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(AllocationError::NoSuchResources
            .to_string()
            .contains("no resources"));
        assert!(AllocationError::TtlExpired
            .to_string()
            .contains("time-to-live"));
        assert!(AllocationError::Parse("line 3".into())
            .to_string()
            .contains("line 3"));
        assert!(AllocationError::Network("reset".into())
            .to_string()
            .contains("reset"));
        assert!(AllocationError::Protocol("bad frame".into())
            .to_string()
            .contains("bad frame"));
    }

    #[test]
    fn allocation_is_cloneable_and_comparable() {
        let a = Allocation {
            request: RequestId(5),
            machine: MachineId(10),
            machine_name: "sun-00010.purdue.edu".to_string(),
            execution_port: 7070,
            mount_port: 7071,
            shadow_uid: Some(6003),
            access_key: SessionKey::derive(RequestId(5), 1, 7),
            pool: "arch,==/sun".to_string(),
            pool_instance: 1,
            examined: 37,
        };
        let b = a.clone();
        assert_eq!(a, b);
    }
}
