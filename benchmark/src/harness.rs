//! What every workload shares: where the binaries, goldens and scratch
//! space are, how a child process is run and timed, how the programs'
//! summary lines are read, and how outputs are checked.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::time::Instant;

/// Flags every measured child runs with (the noise-free IBM SP, two
/// scheduler workers — this sandbox has two cores).
pub const CHILD_FLAGS: [&str; 3] = ["--noise-free", "--jobs", "2"];

/// Locations inside the checkout, which is the working directory.
pub struct Env {
    bin_dir: PathBuf,
    /// `artifacts/golden`.
    pub golden: PathBuf,
    /// `scripts`.
    pub scripts: PathBuf,
    /// This process's scratch directory, deleted when `Env` drops.
    pub work: PathBuf,
}

/// Where results and traces go, and under which scratch lives.
pub const OUT_DIR: &str = "benchmark/out";

impl Env {
    /// Resolve and check the layout; an error names what is missing
    /// (a directory that holds only the benchmark has none of it).
    pub fn locate() -> io::Result<Self> {
        let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
        let env = Self {
            bin_dir: target.join("release"),
            golden: "artifacts/golden".into(),
            scripts: "scripts".into(),
            work: Path::new(OUT_DIR).join(format!("work-{}", std::process::id())),
        };
        for dir in [&env.golden, &env.scripts] {
            if !dir.is_dir() {
                return Err(missing(dir, "run from the repository root"));
            }
        }
        for bin in ["paper_tables", "kc_regime", "kc_served"] {
            let path = env.bin_dir.join(bin);
            if !path.is_file() {
                return Err(missing(&path, "build the workspace in release mode first"));
            }
        }
        if env.work.exists() {
            std::fs::remove_dir_all(&env.work)?;
        }
        std::fs::create_dir_all(&env.work)?;
        Ok(env)
    }

    /// A command running one of the repository's release binaries.
    pub fn bin(&self, name: &str) -> Command {
        Command::new(self.bin_dir.join(name))
    }

    /// A path `name` under the scratch directory at which nothing
    /// exists (whatever an earlier operation left there is removed).
    pub fn fresh_path(&self, name: &str) -> io::Result<PathBuf> {
        let path = self.work.join(name);
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        Ok(path)
    }

    /// A fresh, empty directory `name` under the scratch directory.
    pub fn fresh_dir(&self, name: &str) -> io::Result<PathBuf> {
        let dir = self.fresh_path(name)?;
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        // best effort: a leftover scratch directory is ignored by git
        // and replaced by the next run
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

fn missing(path: &Path, hint: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("{} not found ({hint})", path.display()),
    )
}

/// A child that ran to completion.
pub struct Finished {
    /// Spawn to exit, seconds.
    pub wall_secs: f64,
    pub status: ExitStatus,
    pub stderr: String,
}

/// Run `cmd` to completion with stdout discarded and stderr captured.
pub fn run_child(cmd: &mut Command) -> io::Result<Finished> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    let start = Instant::now();
    let out = cmd.output()?;
    Ok(Finished {
        wall_secs: start.elapsed().as_secs_f64(),
        status: out.status,
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    })
}

/// The counts of a `[cache] R requests, H memory hits, B backend hits,
/// E executed` line (`paper_tables`, `kc_served`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheLine {
    pub requests: u64,
    pub memory_hits: u64,
    pub backend_hits: u64,
    pub executed: u64,
}

pub fn parse_cache_line(stderr: &str) -> Option<CacheLine> {
    let n = tagged_numbers(stderr, "[cache]")?;
    (n.len() == 4).then(|| CacheLine {
        requests: n[0],
        memory_hits: n[1],
        backend_hits: n[2],
        executed: n[3],
    })
}

/// The counts of a `[sweep] A analyses, E cells executed, H cache
/// hits, B backend hits` line (`kc_regime`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepLine {
    pub analyses: u64,
    pub executed: u64,
    pub memory_hits: u64,
    pub backend_hits: u64,
}

pub fn parse_sweep_line(stderr: &str) -> Option<SweepLine> {
    let n = tagged_numbers(stderr, "[sweep]")?;
    (n.len() == 4).then(|| SweepLine {
        analyses: n[0],
        executed: n[1],
        memory_hits: n[2],
        backend_hits: n[3],
    })
}

/// The address of a `[serve] listening on ADDR (jobs ...)` line.
pub fn parse_listening_line(line: &str) -> Option<std::net::SocketAddr> {
    let rest = line.strip_prefix("[serve] listening on ")?;
    rest.split_whitespace().next()?.parse().ok()
}

/// Every unsigned integer on the first line that starts with `tag`.
fn tagged_numbers(text: &str, tag: &str) -> Option<Vec<u64>> {
    let line = text.lines().find(|l| l.starts_with(tag))?;
    Some(
        line[tag.len()..]
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|t| t.parse().ok())
            .collect(),
    )
}

/// Check that `dir` holds exactly `expected` `.json` files and that
/// each is byte-identical to the golden of the same name.
pub fn check_against_golden(dir: &Path, golden: &Path, expected: usize) -> Result<(), String> {
    let mut seen = 0;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let name = path.file_name().expect("directory entries have names");
        same_bytes(&path, &golden.join(name))?;
        seen += 1;
    }
    if seen != expected {
        return Err(format!(
            "{}: {seen} table JSONs, expected {expected}",
            dir.display()
        ));
    }
    Ok(())
}

/// Check that two files hold the same bytes.
pub fn same_bytes(fresh: &Path, golden: &Path) -> Result<(), String> {
    let read = |p: &Path| std::fs::read(p).map_err(|e| format!("{}: {e}", p.display()));
    if read(fresh)? != read(golden)? {
        return Err(format!(
            "{} differs from {}",
            fresh.display(),
            golden.display()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_line_counts() {
        let stderr = "[campaign] 120 cells requested -> 57 unique (0 cached)\n\
                      [cache] 2218 requests, 1418 memory hits, 0 backend hits, 800 executed\n";
        assert_eq!(
            parse_cache_line(stderr),
            Some(CacheLine {
                requests: 2218,
                memory_hits: 1418,
                backend_hits: 0,
                executed: 800
            })
        );
        assert_eq!(parse_cache_line("[cache] 3 requests"), None);
        assert_eq!(parse_cache_line("no such line"), None);
    }

    #[test]
    fn sweep_line_counts() {
        let stderr = "[sweep] 24 analyses, 0 cells executed, 0 cache hits, 288 backend hits\n";
        assert_eq!(
            parse_sweep_line(stderr),
            Some(SweepLine {
                analyses: 24,
                executed: 0,
                memory_hits: 0,
                backend_hits: 288
            })
        );
    }

    #[test]
    fn listening_line_address() {
        let line = "[serve] listening on 127.0.0.1:40123 (jobs 2, max inflight 256, max batch 64)";
        assert_eq!(
            parse_listening_line(line),
            Some("127.0.0.1:40123".parse().unwrap())
        );
        assert_eq!(parse_listening_line("[serve] 3 request(s) answered"), None);
        assert_eq!(parse_listening_line("[serve] listening on nowhere"), None);
    }
}
