//! A lock on the publication path.

#![deny(clippy::disallowed_types)]

use std::sync::Mutex;

pub struct Publication {
    pub slot: Mutex<u64>,
}
