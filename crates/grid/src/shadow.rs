//! Shadow-account pools.
//!
//! PUNCH runs user jobs in *shadow accounts*: pre-created operating-system
//! accounts that are not tied to any individual user and are handed out for
//! the duration of a run.  Field 18 of the resource-database record points at
//! the pool of shadow accounts available on each machine; the ActYP service
//! selects an account when it allocates a machine and relinquishes it when
//! the network desktop reports the run complete.

/// A single shadow account on a machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowAccount {
    /// Operating-system uid assigned to the shadow account.
    pub uid: u32,
    /// Account name (e.g. `punch07`).
    pub name: String,
}

/// The pool of shadow accounts configured on one machine.
#[derive(Debug, Clone, Default)]
pub struct ShadowAccountPool {
    free: Vec<ShadowAccount>,
    in_use: Vec<ShadowAccount>,
}

impl ShadowAccountPool {
    /// Creates a pool of `count` accounts with uids starting at `base_uid`.
    pub fn with_accounts(base_uid: u32, count: u32) -> Self {
        let free = (0..count)
            .map(|i| ShadowAccount {
                uid: base_uid + i,
                name: format!("punch{:02}", i),
            })
            .collect();
        ShadowAccountPool {
            free,
            in_use: Vec::new(),
        }
    }

    /// Number of accounts currently available.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Total number of accounts configured on the machine.
    pub fn capacity(&self) -> usize {
        self.free.len() + self.in_use.len()
    }

    /// Allocates a shadow account, if one is free.
    pub fn allocate(&mut self) -> Option<ShadowAccount> {
        let account = self.free.pop()?;
        self.in_use.push(account.clone());
        Some(account)
    }

    /// Releases a previously allocated account back to the pool.  Returns
    /// `false` if the account was not allocated from this pool (double
    /// release or foreign account), in which case the pool is unchanged.
    pub fn release(&mut self, uid: u32) -> bool {
        if let Some(pos) = self.in_use.iter().position(|a| a.uid == uid) {
            let account = self.in_use.swap_remove(pos);
            self.free.push(account);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_release_cycle() {
        let mut pool = ShadowAccountPool::with_accounts(6000, 3);
        assert_eq!(pool.capacity(), 3);
        assert_eq!(pool.available(), 3);

        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap();
        assert_ne!(a.uid, b.uid);
        assert_eq!(pool.available(), 1);

        assert!(pool.release(a.uid));
        assert_eq!(pool.available(), 2);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut pool = ShadowAccountPool::with_accounts(6000, 1);
        assert!(pool.allocate().is_some());
        assert!(pool.allocate().is_none());
    }

    #[test]
    fn double_release_is_rejected() {
        let mut pool = ShadowAccountPool::with_accounts(6000, 2);
        let a = pool.allocate().unwrap();
        assert!(pool.release(a.uid));
        assert!(!pool.release(a.uid));
        assert_eq!(pool.capacity(), 2);
    }

    #[test]
    fn foreign_uid_release_is_rejected() {
        let mut pool = ShadowAccountPool::with_accounts(6000, 2);
        pool.allocate().unwrap();
        assert!(!pool.release(9999));
    }

    #[test]
    fn default_pool_is_empty() {
        let mut pool = ShadowAccountPool::default();
        assert_eq!(pool.capacity(), 0);
        assert!(pool.allocate().is_none());
    }

    #[test]
    fn never_double_allocates_the_same_uid() {
        let mut pool = ShadowAccountPool::with_accounts(100, 10);
        let mut seen = std::collections::HashSet::new();
        while let Some(a) = pool.allocate() {
            assert!(seen.insert(a.uid), "uid {} allocated twice", a.uid);
        }
        assert_eq!(seen.len(), 10);
    }
}
