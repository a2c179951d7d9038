//! Helpers shared by the lint and hermeticity tests.
//!
//! Each test file declares `pub mod support;`: the helpers one file does
//! not call are then public API of its test crate, not dead code.

use std::path::PathBuf;

pub mod clippy;
pub mod manifest;
pub mod rules;

/// The repository root (the facade package's manifest directory).
pub fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}
