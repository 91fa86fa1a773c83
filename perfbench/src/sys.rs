//! Process introspection: CPU clocks (process-wide and per thread) and
//! resident memory, read through libc and `/proc/self`.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn pthread_self() -> usize;
    fn pthread_getcpuclockid(thread: usize, clock: *mut i32) -> i32;
    fn sysconf(name: i32) -> i64;
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const SC_PAGESIZE: i32 = 30;

fn read_clock(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid out-pointer for the duration of the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time (user + sys) of the whole process, threads that have exited
/// included.
pub fn process_cpu_ns() -> u64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// A CPU clock of the calling thread that any thread of the process can
/// read while the calling thread lives.
pub fn this_thread_clock() -> i32 {
    let mut clock = 0;
    // SAFETY: pthread_self is always valid; `clock` is a valid out-pointer.
    let rc = unsafe { pthread_getcpuclockid(pthread_self(), &mut clock) };
    assert_eq!(rc, 0, "pthread_getcpuclockid failed");
    clock
}

/// Read a clock returned by [`this_thread_clock`].
pub fn clock_ns(clock: i32) -> u64 {
    read_clock(clock)
}

/// Resident set size of the process, bytes.
pub fn rss_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    // SAFETY: sysconf has no memory-safety preconditions.
    let page = unsafe { sysconf(SC_PAGESIZE) }.max(1) as u64;
    pages * page
}

/// Hand freed heap pages back to the kernel so the next round's memory
/// growth starts from the same floor as the first round's.
pub fn trim_heap() {
    #[cfg(target_env = "gnu")]
    // SAFETY: malloc_trim only releases free memory.
    unsafe {
        malloc_trim(0);
    }
}
