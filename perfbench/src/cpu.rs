//! The CPU clock the benchmark times with.
//!
//! The end-to-end times are CPU seconds of the measured process, not wall
//! seconds. On a virtual machine that shares its host with other guests,
//! the hypervisor takes the guest's vCPUs away now and then (steal time);
//! wall time counts those gaps, and a run of two worker processes that
//! meet at a barrier counts every gap of either worker. A Linux guest
//! built with `CONFIG_PARAVIRT_TIME_ACCOUNTING` leaves steal out of a
//! task's CPU time, so CPU time counts only the time the program ran.
//! When nothing else runs on the host, the two agree for the
//! single-process workloads, which never wait.

#![allow(unsafe_code)]

use std::os::raw::{c_int, c_long};

/// `struct timespec` of Linux on 64-bit targets and of 32-bit glibc
/// without 64-bit time.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux: CPU time of every thread of the
/// calling process.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU seconds this process has run so far, to the nanosecond.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the layout
    // the C library expects, and the clock id is a valid Linux clock, so
    // `clock_gettime` writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds since `*t`; moves `*t` to now.
pub(crate) fn lap(t: &mut f64) -> f64 {
    let now = process_cpu_s();
    let d = now - *t;
    *t = now;
    d
}

#[cfg(test)]
mod tests {
    use super::process_cpu_s;
    use std::time::Duration;

    // The process clock counts every thread, so this must stay the only
    // test in this crate's unit-test binary, or a test running beside it
    // would count.
    #[test]
    fn time_asleep_is_not_cpu_time() {
        let t0 = process_cpu_s();
        std::thread::sleep(Duration::from_millis(200));
        let t1 = process_cpu_s();
        assert!(t1 >= t0, "the clock went back: {t0} -> {t1}");
        assert!(t1 - t0 < 0.1, "200 ms asleep counted {} s", t1 - t0);
    }
}
