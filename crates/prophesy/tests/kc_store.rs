//! `kc_store` on the real executable: the shared exit conventions, the
//! committed golden store round-tripping `json → sharded → json` byte
//! for byte, with `stat`, `compact` and `inspect` working on the
//! converted store, and the one-writer lock across processes.

#[path = "../../../tests/support/cli_conventions.rs"]
mod cli_conventions;

use cli_conventions::{assert_help_and_usage_exits, run};
use kc_prophesy::{CellBackend, ShardedStore};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const KC_STORE: &str = env!("CARGO_BIN_EXE_kc_store");

/// Run `kc_store` and return its stdout, failing on a non-zero exit.
fn kc_store(args: &[&str]) -> String {
    let out = run(KC_STORE, args);
    assert!(
        out.status.success(),
        "kc_store {args:?}: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn kc_store_help_and_usage_exits() {
    assert_help_and_usage_exits("kc_store", KC_STORE);
}

#[test]
fn golden_store_round_trips_through_the_sharded_format() {
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts/golden/cells_extended.json");
    let dir = std::env::temp_dir().join(format!("kc_store_roundtrip_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sharded = dir.join("golden.kcs");
    let back = dir.join("roundtrip.json");
    let [golden_arg, sharded_arg, back_arg] =
        [&golden, &sharded, &back].map(|p| p.to_str().unwrap().to_string());

    kc_store(&["convert", &golden_arg, &format!("sharded:{sharded_arg}")]);
    kc_store(&["convert", &sharded_arg, &back_arg]);
    assert!(
        std::fs::read(&golden).unwrap() == std::fs::read(&back).unwrap(),
        "json -> sharded -> json is lossy"
    );

    let stat = kc_store(&["stat", &sharded_arg]);
    assert!(stat.contains("superseded ratio"), "{stat}");
    kc_store(&["compact", &sharded_arg]);
    let inspect = kc_store(&["inspect", &sharded_arg]);
    assert!(inspect.contains("format:  sharded"), "{inspect}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh sharded store at a scratch path whose one shard holds cell
/// `k` twice (so a compaction would have something to rewrite).
fn store_with_a_superseded_cell(tag: &str) -> (PathBuf, ShardedStore) {
    let dir = std::env::temp_dir().join(format!("kc_store_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ShardedStore::create(&dir, 1).unwrap();
    store.append_raw("k", &[1.0]).unwrap();
    store.append_raw("k", &[2.0]).unwrap();
    store.flush().unwrap();
    (dir, store)
}

#[test]
fn compact_refuses_a_store_another_process_holds() {
    let (dir, store) = store_with_a_superseded_cell("held");
    let out = run(KC_STORE, &["compact", dir.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&dir.display().to_string()), "{stderr}");

    // the holder's segment was not swapped under it: its later appends
    // survive a reopen
    store.append_raw("late", &[3.0]).unwrap();
    store.flush().unwrap();
    drop(store);
    let reopened = ShardedStore::open(&dir).unwrap();
    assert_eq!(reopened.get_raw("k"), Some(vec![2.0]));
    assert_eq!(reopened.get_raw("late"), Some(vec![3.0]));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Set in the child copy of this test binary: the store it holds.
const HOLD_ENV: &str = "KC_STORE_TEST_HOLD";
const HOLDING: &str = "holding the store";

#[test]
fn a_killed_holder_leaves_the_store_openable() {
    if let Some(dir) = std::env::var_os(HOLD_ENV) {
        // the child: open the store, say so, and wait to be killed
        let _store = ShardedStore::open(Path::new(&dir)).unwrap();
        println!("{HOLDING}");
        std::io::stdout().flush().unwrap();
        loop {
            std::thread::park();
        }
    }
    let (dir, store) = store_with_a_superseded_cell("killed");
    drop(store);
    let mut child = Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "a_killed_holder_leaves_the_store_openable",
            "--nocapture",
        ])
        .env(HOLD_ENV, &dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let held = stdout
        .lines()
        .any(|line| line.is_ok_and(|line| line == HOLDING));
    assert!(held, "the child never reported holding the store");
    assert!(
        ShardedStore::open(&dir).is_err(),
        "the child holds the store"
    );

    child.kill().unwrap(); // SIGKILL: no destructor runs
    child.wait().unwrap();
    let reopened = ShardedStore::open(&dir).unwrap();
    assert_eq!(reopened.get_raw("k"), Some(vec![2.0]));
    let _ = std::fs::remove_dir_all(&dir);
}
