//! An unbounded channel in driver code.

#![deny(clippy::disallowed_methods)]

use std::sync::mpsc;

pub fn spawn_pipeline() {
    let (tx, rx) = mpsc::channel::<u64>();
    drop((tx, rx));
}
