//! CPU time of the process and of the calling thread.
//!
//! The standard library has no CPU clock, and `/proc` ticks are 10 ms, so
//! this asks the C library (which `std` links anyway) directly.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

// Linux clock ids (`<time.h>`).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on every 64-bit Linux target) and the clock id is one of the two
    // constants above; the call writes `ts` and nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of the process, exited ones included.
pub fn process_cpu_ns() -> u64 {
    cpu_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    cpu_ns(CLOCK_THREAD_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let _turn = crate::alloc::serial();
        let (process, thread) = (process_cpu_ns(), thread_cpu_ns());
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > thread);
        assert!(process_cpu_ns() > process);
    }
}
