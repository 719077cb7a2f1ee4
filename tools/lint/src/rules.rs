//! The lint rules.
//!
//! | rule | invariant | scope |
//! |------|-----------|-------|
//! | R1 | no `unsafe` | every non-shim `src/` tree |
//! | R2 | no default-hasher `HashMap`/`HashSet` (use `FxHashMap`/`FxHashSet`) | hot crates: kg, ground, mln, psl, server, wal |
//! | R3 | no `.unwrap()` / `.expect()` / `panic!` in non-test code | server, wal |
//! | R4 | every `Ordering::{Acquire,Release,AcqRel,SeqCst}` argument carries a `// ordering:` rationale (same line or the comment block above) | every non-shim `src/` tree |
//! | R5 | no `std::thread::sleep` | library crates (`crates/*/src`) |
//! | R6 | no `std::env::var` / `var_os`: a library reads no environment | library crates (`crates/*/src`) |
//! | R7 | no `cfg(feature …)`, `cfg!(feature …)` or `cfg_attr(feature …)`: the workspace has one build | every non-shim file, test code included |
//!
//! `#[cfg(test)]` / `#[test]` regions — and a file that opens with
//! `#![cfg(test)]` — are exempt from every rule but R7 (a test that
//! only one build compiles is the second build R7 rules out). A
//! finding can be suppressed with `// lint: allow(Rn) <reason>` on the
//! same line or the line above; suppressed findings are still counted
//! and reported in the summary so escapes stay visible.

use crate::lexer::{lex, Lexed, Tok};

/// One rule violation.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule id: "R1" … "R7".
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
    /// True when a `// lint: allow(..)` escape covers it.
    pub allowed: bool,
}

struct Scope {
    r1: bool,
    r2: bool,
    r3: bool,
    r4: bool,
    r5: bool,
    r6: bool,
    r7: bool,
}

const HOT_CRATES: [&str; 6] = ["kg", "ground", "mln", "psl", "server", "wal"];

/// Which rules apply to a repo-relative path. Outside `src/` trees
/// only R7 applies — tests, benches and examples are free to unwrap.
fn scope_for(path: &str) -> Scope {
    let p = path.replace('\\', "/");
    let shim = p.starts_with("crates/shims/");
    let in_src = p.contains("/src/") || p.starts_with("src/");
    if shim || !in_src {
        return Scope {
            r1: false,
            r2: false,
            r3: false,
            r4: false,
            r5: false,
            r6: false,
            r7: !shim,
        };
    }
    let crate_name = p
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("");
    Scope {
        r1: true,
        r2: HOT_CRATES.contains(&crate_name),
        r3: crate_name == "server" || crate_name == "wal",
        r4: true,
        r5: p.starts_with("crates/"),
        r6: p.starts_with("crates/"),
        r7: true,
    }
}

/// Does the `cfg`, `cfg!` or `cfg_attr` at token `i` test a feature?
/// The whole parenthesised predicate is searched, so `not(feature …)`
/// and `any(…, feature …)` count too.
fn tests_a_feature(t: &[Tok], i: usize) -> bool {
    if !matches!(t[i].text.as_str(), "cfg" | "cfg_attr") {
        return false;
    }
    let mut j = i + 1;
    if t.get(j).is_some_and(|t| t.text == "!") {
        j += 1;
    }
    if t.get(j).is_none_or(|t| t.text != "(") {
        return false;
    }
    let mut depth = 0usize;
    for tok in &t[j..] {
        match tok.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "feature" => return true,
            _ => {}
        }
    }
    false
}

/// Mark the token indices covered by `#[cfg(test)]` / `#[test]` items
/// (attribute through the end of the following braced item or `;`).
fn test_regions(l: &Lexed) -> Vec<bool> {
    let t = &l.toks;
    let mut in_test = vec![false; t.len()];
    let mut i = 0;
    while i < t.len() {
        // `#![..]` is an inner attribute: it covers the rest of the file.
        let inner = t[i].text == "#" && t.get(i + 1).is_some_and(|t| t.text == "!");
        let open = i + 1 + usize::from(inner);
        if t[i].text == "#" && t.get(open).is_some_and(|t| t.text == "[") {
            // Collect the attribute token span.
            let mut j = open + 1;
            let mut depth = 1;
            let attr_start = j;
            while j < t.len() && depth > 0 {
                match t[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            let attr = &t[attr_start..j.saturating_sub(1)];
            let is_test_attr = (attr.len() == 1 && attr[0].text == "test")
                || attr.windows(4).any(|w| {
                    w[0].text == "cfg"
                        && w[1].text == "("
                        && w[2].text == "test"
                        && (w[3].text == ")" || w[3].text == ",")
                });
            if is_test_attr && inner {
                in_test[i..].fill(true);
                break;
            }
            if is_test_attr {
                // Skip to the end of the annotated item: first `;`
                // before any brace, or the matching `}` otherwise.
                let mut k = j;
                let mut bdepth = 0usize;
                let mut entered = false;
                while k < t.len() {
                    match t[k].text.as_str() {
                        ";" if !entered => {
                            k += 1;
                            break;
                        }
                        "{" => {
                            entered = true;
                            bdepth += 1;
                        }
                        "}" => {
                            bdepth = bdepth.saturating_sub(1);
                            if entered && bdepth == 0 {
                                k += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                for flag in in_test.iter_mut().take(k).skip(i) {
                    *flag = true;
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }
    in_test
}

/// Is `needle` in a comment on `line` or in the contiguous block of
/// comment-bearing lines directly above it? (A rationale is often a
/// multi-line comment whose marker sits on its first line.)
fn has_comment(l: &Lexed, line: u32, needle: &str) -> bool {
    if l.comment_on(line).any(|c| c.contains(needle)) {
        return true;
    }
    let mut ln = line.saturating_sub(1);
    while ln > 0 {
        let mut any = false;
        for c in l.comment_on(ln) {
            any = true;
            if c.contains(needle) {
                return true;
            }
        }
        if !any {
            return false;
        }
        ln -= 1;
    }
    false
}

fn is_allowed(l: &Lexed, line: u32, rule: &str) -> bool {
    let tag = format!("lint: allow({rule})");
    has_comment(l, line, &tag)
}

/// Lint one source file; `rel_path` (repo-relative, `/`-separated)
/// selects which rules apply.
pub fn check_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let scope = scope_for(rel_path);
    let l = lex(src);
    let t = &l.toks;
    let in_test = test_regions(&l);
    let mut out = Vec::new();
    let mut push = |rule: &'static str, line: u32, msg: String| {
        let allowed = is_allowed(&l, line, rule);
        out.push(Finding {
            rule,
            line,
            msg,
            allowed,
        });
    };
    const STRONG: [&str; 4] = ["Acquire", "Release", "AcqRel", "SeqCst"];
    for i in 0..t.len() {
        if scope.r7 && tests_a_feature(t, i) {
            push(
                "R7",
                t[i].line,
                "a cargo feature gates code — the workspace has one build".to_string(),
            );
        }
        if in_test[i] {
            continue;
        }
        let tx = t[i].text.as_str();
        let line = t[i].line;
        if scope.r1 && tx == "unsafe" {
            push("R1", line, "`unsafe` outside crates/shims".to_string());
        }
        if scope.r2 && (tx == "HashMap" || tx == "HashSet") {
            push(
                "R2",
                line,
                format!("default-hasher `{tx}` in a hot crate — use `Fx{tx}` (tecore_kg::fxhash)"),
            );
        }
        if scope.r3 {
            let next = t.get(i + 1).map(|t| t.text.as_str());
            let prev = i
                .checked_sub(1)
                .and_then(|p| t.get(p))
                .map(|t| t.text.as_str());
            if (tx == "unwrap" || tx == "expect") && prev == Some(".") && next == Some("(") {
                push(
                    "R3",
                    line,
                    format!("`.{tx}()` on a non-test server/wal path — return a typed error"),
                );
            }
            if tx == "panic" && next == Some("!") {
                push(
                    "R3",
                    line,
                    "`panic!` on a non-test server/wal path".to_string(),
                );
            }
        }
        if scope.r4
            && tx == "Ordering"
            && t.get(i + 1).map(|t| t.text.as_str()) == Some("::")
            && t.get(i + 2).map(|t| STRONG.contains(&t.text.as_str())) == Some(true)
        {
            // Argument position only: `load(Ordering::Acquire)` or a
            // middle argument — not match arms / comparisons.
            let prev = i
                .checked_sub(1)
                .and_then(|p| t.get(p))
                .map(|t| t.text.as_str());
            let next = t.get(i + 3).map(|t| t.text.as_str());
            let arg_pos =
                matches!(prev, Some("(") | Some(",")) && matches!(next, Some(")") | Some(","));
            if arg_pos && !has_comment(&l, line, "ordering:") {
                push(
                    "R4",
                    line,
                    format!(
                        "`Ordering::{}` without a `// ordering:` rationale (same line or the comment block above)",
                        t[i + 2].text
                    ),
                );
            }
        }
        if scope.r5
            && tx == "thread"
            && t.get(i + 1).map(|t| t.text.as_str()) == Some("::")
            && t.get(i + 2).map(|t| t.text.as_str()) == Some("sleep")
        {
            push("R5", line, "`thread::sleep` in a library crate".to_string());
        }
        if scope.r6
            && tx == "env"
            && t.get(i + 1).map(|t| t.text.as_str()) == Some("::")
            && matches!(
                t.get(i + 2).map(|t| t.text.as_str()),
                Some("var" | "var_os")
            )
        {
            push(
                "R6",
                line,
                "`env::var` in a library crate — take the value as an argument".to_string(),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        check_source(path, src)
    }

    fn active(path: &str, src: &str) -> Vec<Finding> {
        findings(path, src)
            .into_iter()
            .filter(|f| !f.allowed)
            .collect()
    }

    #[test]
    fn r1_fires_on_unsafe() {
        let f = active(
            "crates/core/src/lib.rs",
            "fn f() { unsafe { std::hint::unreachable_unchecked() } }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "R1");
        // Shims are exempt.
        assert!(active("crates/shims/rand/src/lib.rs", "unsafe fn g() {}").is_empty());
        // Test regions are exempt.
        assert!(active(
            "crates/core/src/lib.rs",
            "#[cfg(test)]\nmod t { fn f() { unsafe {} } }"
        )
        .is_empty());
    }

    #[test]
    fn r2_fires_on_default_hashers_in_hot_crates() {
        let f = active("crates/kg/src/graph.rs", "use std::collections::HashMap;\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "R2");
        let f = active(
            "crates/wal/src/wal.rs",
            "let s: HashSet<u32> = HashSet::new();",
        );
        assert_eq!(f.len(), 2);
        // Cold crates may use default hashers.
        assert!(active("crates/logic/src/lib.rs", "use std::collections::HashMap;").is_empty());
        // FxHashMap is one token and never matches.
        assert!(active("crates/kg/src/graph.rs", "let m = FxHashMap::default();").is_empty());
    }

    #[test]
    fn r3_fires_on_panicking_paths() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\nfn g() { panic!(\"boom\") }\nfn h(x: Option<u32>) { x.expect(\"msg\"); }";
        let f = active("crates/server/src/proto.rs", src);
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|f| f.rule == "R3"));
        // Out of scope: kg may unwrap.
        assert!(active(
            "crates/kg/src/dict.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }"
        )
        .is_empty());
        // Tests may unwrap even in server.
        assert!(active(
            "crates/wal/src/wal.rs",
            "#[cfg(test)]\nmod t { #[test] fn u() { None::<u32>.unwrap(); } }"
        )
        .is_empty());
    }

    #[test]
    fn r4_requires_ordering_rationale() {
        let f = active(
            "crates/server/src/cell.rs",
            "let v = a.load(Ordering::Acquire);",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "R4");
        // Same-line rationale.
        assert!(active(
            "crates/server/src/cell.rs",
            "let v = a.load(Ordering::Acquire); // ordering: pairs with publish Release"
        )
        .is_empty());
        // Line-above rationale.
        assert!(active(
            "crates/server/src/cell.rs",
            "// ordering: pairs with publish Release\nlet v = a.load(Ordering::Acquire);"
        )
        .is_empty());
        // Multi-line rationale: the marker may open the comment block.
        assert!(active(
            "crates/server/src/cell.rs",
            "// ordering: pairs with the publish release store so a\n// reader that sees the word sees the slot\nlet v = a.load(Ordering::Acquire);"
        )
        .is_empty());
        // A code line breaks the block.
        let f = active(
            "crates/server/src/cell.rs",
            "// ordering: about the line below only\nlet w = b.store(1, Ordering::Release);\nlet v = a.load(Ordering::Acquire);",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
        // Relaxed needs no rationale.
        assert!(active("crates/server/src/cell.rs", "a.load(Ordering::Relaxed);").is_empty());
        // Match arms / comparisons are not argument positions.
        assert!(active(
            "crates/server/src/cell.rs",
            "match o { Ordering::Acquire => 1, Ordering::SeqCst => 2, _ => 0 };"
        )
        .is_empty());
        // Middle-argument position still fires.
        let f = active(
            "crates/server/src/cell.rs",
            "a.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed);",
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn r5_fires_on_sleep_in_library_crates() {
        let f = active("crates/core/src/engine.rs", "std::thread::sleep(d);");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "R5");
        // Tools are exempt (not under crates/).
        assert!(active("tools/bench_check/src/main.rs", "std::thread::sleep(d);").is_empty());
    }

    #[test]
    fn r6_fires_on_env_reads_in_library_crates() {
        let f = active(
            "crates/wal/src/wal.rs",
            "let v = std::env::var(\"TECORE_X\");",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "R6");
        assert_eq!(
            active("crates/core/src/engine.rs", "env::var_os(\"X\");").len(),
            1
        );
        // Shims, tools and bench targets may read their environment;
        // `temp_dir` and `args` are not reads of it.
        assert!(active("crates/shims/criterion/src/lib.rs", "std::env::var(\"X\");").is_empty());
        assert!(active("tools/lint/src/main.rs", "std::env::var(\"X\");").is_empty());
        assert!(active("crates/bench/benches/b.rs", "std::env::var(\"X\");").is_empty());
        assert!(active("crates/wal/src/storage.rs", "std::env::temp_dir();").is_empty());
        let all = findings(
            "crates/core/src/engine.rs",
            "// lint: allow(R6) the one documented switch\nstd::env::var(\"X\");",
        );
        assert!(all.len() == 1 && all[0].allowed);
    }

    #[test]
    fn r7_fires_on_feature_gates_test_code_included() {
        for src in [
            "#[cfg(feature = \"x\")]\nfn f() {}",
            "#[cfg_attr(feature = \"x\", derive(Debug))]\nstruct S;",
            "fn f() -> bool { cfg!(feature = \"x\") }",
            "#[cfg(not(feature = \"x\"))]\nfn f() {}",
            "#[cfg(test)]\nmod t { #[cfg(feature = \"x\")] #[test] fn u() {} }",
        ] {
            let f = active("crates/wal/src/wal.rs", src);
            assert!(f.len() == 1 && f[0].rule == "R7", "{src}");
        }
        // Test files outside `src/` and `#![cfg(test)]` files count.
        let gated = "#[cfg(feature = \"x\")]\n#[test]\nfn u() {}";
        assert_eq!(active("crates/wal/tests/recovery.rs", gated).len(), 1);
        let sim = format!("#![cfg(test)]\n{gated}");
        assert_eq!(active("crates/server/src/server/sim.rs", &sim).len(), 1);
        // Other predicates, strings and shims do not.
        for src in [
            "#[cfg(debug_assertions)]\nfn f() {}",
            "#[cfg(test)]\nmod t {}",
            "#[cfg_attr(test, allow(dead_code))]\nfn f() {}",
            "let s = \"cfg(feature = x)\";",
            "let feature = cfg!(test);",
        ] {
            assert!(active("crates/wal/src/wal.rs", src).is_empty(), "{src}");
        }
        assert!(active(
            "crates/shims/rand/src/lib.rs",
            "#[cfg(feature = \"std\")]\nfn f() {}"
        )
        .is_empty());
    }

    #[test]
    fn an_inner_cfg_test_exempts_the_whole_file() {
        let src = "//! docs\n#![cfg(test)]\nfn f() { x.unwrap(); std::env::var(\"X\"); }";
        assert!(active("crates/server/src/server/sim.rs", src).is_empty());
        let src = "#![forbid(unsafe_code)]\nfn f() { x.unwrap(); }";
        assert_eq!(active("crates/server/src/lib.rs", src).len(), 1);
    }

    #[test]
    fn allow_escape_suppresses_but_is_reported() {
        let src =
            "// lint: allow(R5) acceptor poll loop has no std alternative\nstd::thread::sleep(d);";
        let all = findings("crates/server/src/server.rs", src);
        assert_eq!(all.len(), 1);
        assert!(all[0].allowed);
        // The escape names the rule: allowing R5 does not allow R3.
        let src = "// lint: allow(R5)\nx.unwrap();";
        let all = findings("crates/server/src/server.rs", src);
        assert_eq!(all.len(), 1);
        assert!(!all[0].allowed);
    }

    #[test]
    fn strings_never_trigger_rules() {
        assert!(active(
            "crates/server/src/proto.rs",
            "let s = \"unsafe panic! HashMap thread::sleep\";"
        )
        .is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let f = active(
            "crates/server/src/lib.rs",
            "#[cfg(not(test))]\nfn f() { x.unwrap(); }",
        );
        assert_eq!(f.len(), 1);
    }
}
