//! Umbrella package hosting workspace-level integration tests and examples.

#![forbid(unsafe_code)]
