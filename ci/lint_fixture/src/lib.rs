//! The crate root has no `#![forbid(unsafe_code)]`, and its library code
//! unwraps and carries a suppression without a reason.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod determinism;
pub mod driver;
pub mod publication;

pub fn lookup(table: Option<u32>) -> u32 {
    table.unwrap()
}

#[allow(dead_code)]
fn unused() {}

pub fn first_byte(bytes: &[u8]) -> u8 {
    unsafe { *bytes.as_ptr() }
}
