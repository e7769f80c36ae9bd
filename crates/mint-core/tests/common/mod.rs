//! Helpers shared by the integration suites of `mint-core`.

pub mod counting;
