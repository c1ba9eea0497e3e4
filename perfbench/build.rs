//! Stamps the machine-independent half of each result record at build
//! time: the compiler version, the git commit when built from a git
//! checkout, and a digest of the benchmarked sources (which identifies the
//! code when no git metadata is present).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest
        .parent()
        .expect("benchmark lives in the repository")
        .to_path_buf();

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=PERFBENCH_COMMIT={}",
        git_commit(&root.join(".git"))
    );

    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench/src"] {
        collect(&root.join(dir), &mut files);
        println!("cargo:rerun-if-changed=../{dir}");
    }
    files.sort();
    // FNV-1a over (relative path, contents) of every source file.
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let rel = file.strip_prefix(&root).expect("collected under root");
        let contents = fs::read(file).expect("readable source file");
        for byte in rel.to_string_lossy().bytes().chain(contents) {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={digest:016x}");
}

/// `HEAD`'s commit read straight from the git directory (no `git` process,
/// no search above the repository), or `none` outside a git checkout.
fn git_commit(git: &Path) -> String {
    // Cargo reruns a build script whose watched path is missing on every
    // build, so only existing git files are watched.
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    println!("cargo:rerun-if-changed=../.git/HEAD");
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    for watched in [reference, "packed-refs"] {
        if git.join(watched).exists() {
            println!("cargo:rerun-if-changed=../.git/{watched}");
        }
    }
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "none".into())
}

/// Every `.rs` and `Cargo.toml` under `dir`, skipping build output.
fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}
