//! The few operating-system facts the harness needs and `std` does
//! not expose: resource usage of waited-for children, SIGTERM, and
//! the CPU time of a child that is still running.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("kc-benchmark reads /proc and assumes the 64-bit Linux `struct rusage` layout");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s
/// of which only the first (`ru_maxrss`, KiB) is read here.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}

const RUSAGE_CHILDREN: i32 = -1;
const SIGTERM: i32 = 15;
const SC_CLK_TCK: i32 = 2;

/// CPU seconds (user + system) and peak resident set of every child
/// this process has waited for so far.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChildUsage {
    pub cpu_secs: f64,
    pub peak_rss_mb: f64,
}

pub fn waited_children() -> ChildUsage {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable `struct rusage` of the layout
    // the kernel fills for this target (checked by the cfg above), and
    // RUSAGE_CHILDREN is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    ChildUsage {
        cpu_secs: secs(u.utime) + secs(u.stime),
        peak_rss_mb: u.maxrss as f64 / 1024.0,
    }
}

/// Ask process `pid` to terminate (SIGTERM).  Errors — the process is
/// already gone — are ignored: the caller waits on the child anyway.
pub fn terminate(pid: u32) {
    // SAFETY: `kill` takes plain integers; `pid` is a child this
    // process spawned and has not yet waited for, so it cannot have
    // been recycled for another process.
    unsafe { kill(pid as i32, SIGTERM) };
}

/// CPU seconds (user + system, all threads) process `pid` has used so
/// far, from `/proc/<pid>/stat`; for a child that is still running.
pub fn running_cpu_secs(pid: u32) -> std::io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    let ticks = parse_stat_cpu_ticks(&stat).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "unreadable /proc stat line",
        )
    })?;
    // SAFETY: `sysconf` takes a plain integer and touches no memory.
    let per_sec = unsafe { sysconf(SC_CLK_TCK) };
    assert!(per_sec > 0, "sysconf(_SC_CLK_TCK) failed");
    Ok(ticks as f64 / per_sec as f64)
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line.
/// The command name (field 2) may hold spaces and parentheses, so
/// fields are counted from the last `)`.
fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_cpu_fields() {
        let line = "4242 (kc (odd) name) S 1 4242 4242 0 -1 4194304 1200 0 0 0 \
                    37 5 0 0 20 0 3 0 100 1000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(line), Some(42));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn own_process_stat_is_readable() {
        assert!(running_cpu_secs(std::process::id()).unwrap() >= 0.0);
    }

    #[test]
    fn waited_children_grow_with_a_child() {
        let before = waited_children();
        let status = std::process::Command::new("true").status().unwrap();
        assert!(status.success());
        let after = waited_children();
        assert!(after.cpu_secs >= before.cpu_secs);
        assert!(after.peak_rss_mb > 0.0);
    }
}
