//! Workspace invariant linter (see `rules` for the R1–R8 table).
//!
//! Dependency-free, like `tools/bench_check`: a token-level pass over
//! every Rust file of the workspace (`crates/`, `tools/`, `src/`,
//! `tests/`, `examples/`; most rules look at `src/` trees only). Run it
//! from the workspace root:
//!
//! ```text
//! cargo run --release -p lint
//! ```
//!
//! Exit code 0 when clean (suppressed `// lint: allow(..)` findings are
//! listed in the summary but do not fail the run), 1 when any active
//! finding remains, 2 on I/O errors.

#![forbid(unsafe_code)]

mod lexer;
mod rules;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if cwd.join("Cargo.toml").is_file() && cwd.join("crates").is_dir() {
        return cwd;
    }
    // Fallback: tools/lint/../../ relative to this crate's manifest.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs(&p, out);
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
    out.sort();
}

fn main() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    for top in ["crates", "tools", "src", "tests", "examples"] {
        collect_rs(&root.join(top), &mut files);
    }
    files.sort();
    if files.is_empty() {
        eprintln!("lint: no source files found under {}", root.display());
        return ExitCode::from(2);
    }
    let mut active = 0usize;
    let mut suppressed: Vec<String> = Vec::new();
    let mut scanned = 0usize;
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(src) = std::fs::read_to_string(path) else {
            eprintln!("lint: unreadable file {rel}");
            return ExitCode::from(2);
        };
        scanned += 1;
        for f in rules::check_source(&rel, &src) {
            if f.allowed {
                suppressed.push(format!("{rel}:{}: {} (allowed): {}", f.line, f.rule, f.msg));
            } else {
                eprintln!("{rel}:{}: {}: {}", f.line, f.rule, f.msg);
                active += 1;
            }
        }
    }
    if !suppressed.is_empty() {
        eprintln!(
            "lint: {} suppressed finding(s) via `// lint: allow(..)`:",
            suppressed.len()
        );
        for s in &suppressed {
            eprintln!("  {s}");
        }
    }
    if active > 0 {
        eprintln!("lint: FAIL — {active} finding(s) across {scanned} files");
        ExitCode::from(1)
    } else {
        eprintln!(
            "lint: OK — {scanned} files clean ({} suppressed)",
            suppressed.len()
        );
        ExitCode::SUCCESS
    }
}
