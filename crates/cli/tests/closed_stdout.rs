//! A reader that closes stdout early (`minoaner … | head`) ends every
//! printing verb quietly: status 0 and nothing on stderr, no panic.
//! Each verb here prints more than a pipe buffer holds, so it is still
//! writing when the reader closes and its next write fails with
//! `BrokenPipe`; a verb that fit in the buffer would not test anything.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use minoan_datagen::{mutate_stream, DatasetKind};
use minoan_exec::faults;
use minoan_kb::Json;
use minoan_serve::ServeOptions;

mod common;
use common::{http, with_daemon};

/// Linux's default pipe capacity.
const PIPE_BUFFER: usize = 1 << 16;

/// Entities per side of [`long_uri_pair`].
const ENTITIES: usize = 400;

fn minoaner(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_minoaner"));
    cmd.args(args).args(["--log-level", "error"]);
    cmd
}

/// Runs `args` to the end and checks that it prints more than a pipe
/// buffer; then runs it again, reads its first line (at most 4 KiB)
/// and closes the pipe.
fn closes_quietly(args: &[&str]) {
    let full = minoaner(args).output().expect("run minoaner");
    assert!(full.status.success(), "{args:?}: {full:?}");
    assert!(
        full.stdout.len() > PIPE_BUFFER,
        "{args:?} printed only {} bytes",
        full.stdout.len()
    );

    let mut child = minoaner(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn minoaner");
    let mut stdout = child.stdout.take().unwrap();
    let mut line = Vec::new();
    let mut byte = [0u8];
    while line.len() < 4096 && stdout.read(&mut byte).unwrap() == 1 && byte[0] != b'\n' {
        line.push(byte[0]);
    }
    assert!(!line.is_empty(), "{args:?}: no first line");
    drop(stdout);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    assert!(stderr.is_empty(), "{args:?}: {stderr}");
}

/// Two TSV KBs whose entities match one to one by name, with 600-byte
/// URIs so that every printed pair is long, and one shared `tag` value
/// so that every entity has every entity of the other side as a
/// candidate.
fn long_uri_pair(dir: &Path) -> [PathBuf; 2] {
    std::fs::create_dir_all(dir).unwrap();
    let pad = "x".repeat(600);
    ["a", "b"].map(|side| {
        let mut tsv = String::new();
        for i in 0..ENTITIES {
            let uri = format!("{side}:{pad}{i}");
            tsv.push_str(&format!("{uri}\tname\tlit\tspecimen{i}\n"));
            tsv.push_str(&format!("{uri}\ttag\tlit\tcommon shared\n"));
        }
        let path = dir.join(format!("{side}.tsv"));
        std::fs::write(&path, tsv).unwrap();
        path
    })
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("closed-stdout-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn match_tsv_output() {
    let dir = scratch("match");
    let [first, second] = long_uri_pair(&dir);
    closes_quietly(&["match", first.to_str().unwrap(), second.to_str().unwrap()]);
}

#[test]
fn batch_pairs_output() {
    let dir = scratch("batch");
    let [first, second] = long_uri_pair(&dir);
    let job = Json::obj([
        ("name", Json::str("long")),
        ("first", Json::str(first.to_str().unwrap())),
        ("second", Json::str(second.to_str().unwrap())),
    ]);
    let manifest = dir.join("fleet.json");
    std::fs::write(&manifest, Json::obj([("jobs", Json::arr([job]))]).pretty()).unwrap();
    closes_quietly(&["batch", "--manifest", manifest.to_str().unwrap(), "--pairs"]);
}

#[test]
fn index_query_output() {
    let dir = scratch("query");
    let [first, second] = long_uri_pair(&dir);
    let dir_arg = dir.to_str().unwrap();
    let build = minoaner(&["index", "build", "long", "--dir", dir_arg, "--no-purge"])
        .args([&first, &second])
        .output()
        .unwrap();
    assert!(build.status.success(), "{build:?}");
    let index = dir.join("long.idx");
    closes_quietly(&[
        "index",
        "query",
        index.to_str().unwrap(),
        "--sample",
        "--k",
        "128",
    ]);
}

#[test]
fn datagen_mutate_output() {
    closes_quietly(&["datagen", "restaurant", "--mutate", "--ops", "2000"]);
}

struct Disarm;

impl Drop for Disarm {
    fn drop(&mut self) {
        faults::disarm();
    }
}

/// A job's trace is one span tree per attempt, about 15 KB printed. A
/// patch whose persist fails (`core.delta.apply`) after each of its
/// first five pipeline runs leaves six trees, more than a pipe buffer.
#[test]
fn trace_output() {
    let opts = ServeOptions {
        index_dir: Some(scratch("trace")),
        max_retries: Some(5),
        ..ServeOptions::default()
    };
    with_daemon(opts, |addr| {
        let build = r#"{"name":"ix","dataset":"restaurant","scale":0.05}"#;
        let (status, body) = http(addr, "POST", "/v1/indexes?wait=true", build);
        assert_eq!(status, 201, "{body}");
        let ops = mutate_stream(DatasetKind::Restaurant, 20180416, 0.05, 1, 5);
        let deltas = minoan_kb::delta::ops_to_json(&ops).compact();
        let _disarm = Disarm;
        faults::arm("seed:1,core.delta.apply:1:io:5").unwrap();
        let (status, body) = http(addr, "PATCH", "/v1/indexes/ix?wait=true", &deltas);
        faults::disarm();
        assert_eq!(status, 202, "{body}");
        let id = Json::parse(&body).unwrap().get("job").unwrap().as_usize();
        let id = id.unwrap().to_string();
        closes_quietly(&["trace", &id, "--connect", &addr.to_string()]);
    });
}
