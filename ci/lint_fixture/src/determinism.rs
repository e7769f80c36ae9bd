//! Ambient time in a deterministic module.

#![deny(clippy::disallowed_methods)]

use std::time::Instant;

pub fn jitter() -> u64 {
    let t = Instant::now();
    t.elapsed().subsec_nanos() as u64
}
