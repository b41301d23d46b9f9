//! The examples keep the binaries' output contract: a closed stdout ends
//! the run quietly with exit 0, where a `println!` would panic (exit 101).

use std::path::PathBuf;
use std::process::{Command, Stdio};

/// `target/<profile>/examples/<name>`: `cargo test` builds the examples
/// before it runs the tests, beside this test binary's `deps/` directory.
fn example(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("test binary path");
    let profile_dir = exe
        .parent()
        .and_then(|deps| deps.parent())
        .expect("test binaries live in target/<profile>/deps");
    profile_dir.join("examples").join(name)
}

#[test]
fn quickstart_to_a_closed_pipe_exits_0() {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let exe = example("quickstart");
    let out = Command::new(&exe)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap_or_else(|e| {
            panic!(
                "spawn {}: {e} (a plain `cargo test` builds the examples; \
                 with a target filter, run `cargo build --examples` first)",
                exe.display()
            )
        });
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(
        stderr.is_empty(),
        "a closed reader is not an error:\n{stderr}"
    );
}
