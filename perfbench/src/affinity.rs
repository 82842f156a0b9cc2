//! Thread placement for the query windows. On a small virtual machine the
//! scheduler may put the server's connection thread on the client's
//! core or on the other one, and the choice sticks for a whole run: the
//! median latency then reads one of two values a factor of two apart,
//! depending only on placement. The query windows therefore run the
//! server on one allowed core and the load generator on another, so
//! every run measures the same cross-core path, and keep the server's
//! core from halting with an idle-class spinner.

use std::os::raw::{c_int, c_void};

/// Bytes of a `cpu_set_t` (glibc's 1024 CPUs).
const SET_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut c_void) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_void) -> c_int;
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const c_int) -> c_int;
}

/// `SCHED_IDLE`: run only when nothing else wants the core.
const SCHED_IDLE: c_int = 5;

/// Move the calling thread to the idle scheduling class.
pub fn lowest_priority() -> bool {
    let param: c_int = 0;
    // SAFETY: `param` is a valid `struct sched_param` (one int, the
    // priority, which must be 0 for SCHED_IDLE) that outlives the call;
    // pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// The CPUs the calling thread may run on.
pub fn allowed() -> Vec<usize> {
    let mut mask = [0u8; SET_BYTES];
    // SAFETY: `mask` is a writable buffer of exactly `SET_BYTES` bytes,
    // the size passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, SET_BYTES, mask.as_mut_ptr().cast()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..SET_BYTES * 8)
        .filter(|&cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0)
        .collect()
}

/// Restrict the calling thread (and the threads it spawns from now on)
/// to `cpus`. Returns whether the kernel accepted the mask.
pub fn restrict(cpus: &[usize]) -> bool {
    let mut mask = [0u8; SET_BYTES];
    for &cpu in cpus.iter().filter(|&&c| c < SET_BYTES * 8) {
        mask[cpu / 8] |= 1 << (cpu % 8);
    }
    // SAFETY: `mask` is a readable buffer of exactly `SET_BYTES` bytes,
    // the size passed; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, SET_BYTES, mask.as_ptr().cast()) == 0 }
}
