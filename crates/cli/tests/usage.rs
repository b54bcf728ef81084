//! Usage errors of the single-pair verbs: each exits 2 before it reads
//! any input. No verb takes a thread count, and `index query --k` takes
//! `1..=128`, as `GET /v1/indexes/{id}/match` does.

use std::process::Command;

fn status(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_minoaner"))
        .args(args)
        .args(["--log-level", "error"])
        .output()
        .expect("run minoaner")
        .status
        .code()
}

/// Each verb with `--threads` appended is a usage error (2); without it
/// the same line runs, and fails only on its missing input (1) or
/// succeeds (0).
#[test]
fn single_pair_verbs_take_no_threads_flag() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("usage-threads");
    let dir = dir.to_str().unwrap();
    let cases: &[(&[&str], i32)] = &[
        (&["match", "no-such-first.nt", "no-such-second.nt"], 1),
        (
            &["index", "build", "t", "--dir", dir, "no-such.nt", "no.nt"],
            1,
        ),
        (&["index", "patch", "no-such.idx", "--deltas", "no.json"], 1),
        (&["demo", "restaurant", "--scale", "0.05"], 0),
    ];
    for (args, without) in cases {
        assert_eq!(status(args), Some(*without), "{args:?}");
        let with: Vec<&str> = args.iter().copied().chain(["--threads", "2"]).collect();
        assert_eq!(status(&with), Some(2), "{with:?}");
    }
}

#[test]
fn index_query_k_outside_1_to_128_is_a_usage_error() {
    let query = |k: &str| status(&["index", "query", "no-such.idx", "--sample", "--k", k]);
    assert_eq!(query("0"), Some(2));
    assert_eq!(query("129"), Some(2));
    // In range, the query gets as far as opening the file.
    assert_eq!(query("1"), Some(1));
    assert_eq!(query("128"), Some(1));
}
