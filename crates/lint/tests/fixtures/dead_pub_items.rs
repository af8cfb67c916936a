//! Fixture: one `pub` item per dead-pub case, linted as a library file.

/// Named nowhere else: flagged, delete.
pub fn dead_free_fn() -> u8 {
    0
}

/// A type the callers below name.
pub struct Holder;

impl Holder {
    /// Only this file's `#[cfg(test)]` module calls it: flagged, delete.
    pub fn test_only(&self) -> u8 {
        1
    }

    /// Only `from_integration_test` below calls it: flagged, drop `pub`.
    pub fn own_file_only(&self) -> u8 {
        2
    }

    /// Called from an integration test: live.
    pub fn from_integration_test(&self) -> u8 {
        self.own_file_only()
    }

    /// Called from an example: live.
    pub fn from_example(&self) -> u8 {
        3
    }

    /// Called from the benchmark harness: live.
    pub fn from_perfbench(&self) -> u8 {
        4
    }
}

/// Only the crate root's `pub use` names it: flagged, delete.
pub struct Reexported;

/// Only its own `impl` header names it: flagged, delete.
pub struct OnlyImpl;

impl OnlyImpl {
    fn touch(&self) {}
}

/// Passed as a function pointer by the example: live.
pub fn as_pointer(x: u8) -> u8 {
    x
}

/// Returned by a live function, so part of its public signature: live.
pub struct Exported;

/// Called from the example; its return type keeps `Exported` public.
pub fn make_exported() -> Exported {
    Exported
}

/// Restricted visibility is rustc's business, not this tier's.
pub(crate) fn crate_visible() {}

impl std::fmt::Display for Holder {
    // A trait-impl method carries no `pub` and is never checked.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "holder")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_only_answers_one() {
        assert_eq!(Holder.test_only(), 1);
    }
}
