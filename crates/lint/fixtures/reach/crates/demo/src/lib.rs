//! The `reach` fixture's library crate.

/// Only the integration test calls it: reported.
pub fn orphan() -> Detail {
    Detail { depth: 1 }
}

/// Only `orphan`, itself unreached, names it: reported.
pub struct Detail {
    pub depth: u32,
}

/// The bin calls it.
pub fn used_by_bin() -> Thing {
    Thing
}

/// The example calls it.
pub fn used_by_example() -> u32 {
    2
}

/// Implementing it names nothing; the bin's `use` of it does.
pub trait Greet {
    fn greet(&self) -> String;
}

pub struct Thing;

impl Greet for Thing {
    fn greet(&self) -> String {
        "hello".to_string()
    }
}

// lint-allow(reach): crates/demo/tests/orphan.rs drives it
pub struct Kept;

impl Kept {
    /// Inside a kept item: not reported.
    pub fn inner(&self) -> Helper {
        Helper
    }
}

/// Named by a kept item's method: reached.
pub struct Helper;

#[cfg(test)]
mod tests {
    #[test]
    fn a_unit_test_names_nothing() {
        let _ = super::orphan();
    }
}
