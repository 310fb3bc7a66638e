//! `ccs-lint` — a span-diagnostic architectural lint engine.
//!
//! The workspace's correctness story rests on invariants the type system
//! cannot see: the levelwise kernel owns the single level loop and
//! `ResumeState` stamping site (DESIGN.md §11), every byte of checkpoint
//! I/O stays inside `persist.rs` (§12), `CountingStats` merges through
//! one `AddAssign`, guarded entry points thread a probe, I/O paths fail
//! as values, and wall clocks are read only in `guard.rs`. These used to
//! be ~40 lines of CI `grep` — blind to comments, strings, and
//! `#[cfg(test)]`, and silent about *why* a hit matters.
//!
//! This crate replaces the greps with token-level rules over a lossless
//! Rust lexer ([`lexer`]), structural context from a brace-matching pass
//! ([`context`]), a typed rule table ([`rules`]), and caret-rendered
//! diagnostics with an auditable suppression protocol ([`diag`]). The
//! whole pipeline is hand-rolled — no dependencies — in the same house
//! style as the query lexer and the constraint analyzer.

pub mod context;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod vendor;

use std::io;
use std::path::Path;

use diag::{LineIndex, Suppression, Violation};
use lexer::Tok;

/// The lint result for one file.
pub struct LintedFile {
    /// Workspace-relative path, unix separators.
    pub path: String,
    /// The file's source, kept for caret rendering.
    pub src: String,
    /// Violations that survived suppression, in span order.
    pub violations: Vec<Violation>,
    /// How many findings a valid `allow(...)` silenced.
    pub suppressed: usize,
}

/// Integration tests, examples, and benches exercise public APIs; the
/// engine treats their whole files as test code (the resume-stamp rule
/// still applies there — see [`rules`]).
fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.starts_with("examples/")
        || path.contains("/tests/")
        || path.contains("/examples/")
        || path.contains("/benches/")
}

/// Lints one file's source as if it lived at `path` (workspace-relative,
/// unix separators). The path drives rule scoping, which is what lets
/// fixture files pretend to be `crates/core/src/…`.
pub fn lint_source(path: &str, src: &str) -> LintedFile {
    let toks = lexer::lex(src);
    let sig: Vec<Tok> = toks.iter().copied().filter(|t| !t.is_trivia()).collect();
    let mut ctx = context::analyze(src, &sig);
    if is_test_path(path) {
        for flag in &mut ctx.in_test {
            *flag = true;
        }
    }
    let index = LineIndex::new(src);
    let findings = rules::check_file(path, src, &sig, &ctx);
    let (suppressions, mut meta) = collect_suppressions(src, &toks, &sig, &index);

    let mut suppressed = 0usize;
    let mut violations: Vec<Violation> = Vec::new();
    for f in findings {
        let line = index.line_of(f.span.0);
        let silenced = suppressions
            .iter()
            .any(|s| s.reason.is_some() && s.rule == f.rule && s.target_line == line);
        if silenced {
            suppressed += 1;
            continue;
        }
        violations.push(to_violation(path, &index, f.rule, f.span, f.message));
    }
    for (span, message) in meta.drain(..) {
        violations.push(to_violation(
            path,
            &index,
            "suppression-requires-reason",
            span,
            message,
        ));
    }
    violations.sort_by_key(|v| (v.span.0, v.rule));
    LintedFile {
        path: path.to_owned(),
        src: src.to_owned(),
        violations,
        suppressed,
    }
}

fn to_violation(
    path: &str,
    index: &LineIndex,
    rule: &'static str,
    span: (usize, usize),
    message: String,
) -> Violation {
    let why = rules::rule(rule).map_or("", |r| r.why);
    Violation {
        rule,
        path: path.to_owned(),
        line: index.line_of(span.0),
        col: index.col_of(span.0),
        span,
        message,
        why,
    }
}

/// A finding of the suppression meta-rule: the offending comment's byte
/// span and the message.
type MetaFinding = ((usize, usize), String);

/// Finds every `ccs-lint: allow(...)` comment, resolves the line each one
/// covers, and validates it against the meta-rule: the named rule must
/// exist and the reason is mandatory. Invalid allows come back as
/// meta-findings (they can never be suppressed themselves).
fn collect_suppressions(
    src: &str,
    toks: &[Tok],
    sig: &[Tok],
    index: &LineIndex,
) -> (Vec<Suppression>, Vec<MetaFinding>) {
    let mut out = Vec::new();
    let mut meta = Vec::new();
    for t in toks {
        if !matches!(
            t.kind,
            lexer::TokKind::LineComment | lexer::TokKind::BlockComment
        ) {
            continue;
        }
        let text = t.text(src);
        // Doc comments describe the protocol; only plain comments invoke
        // it. (Otherwise this crate's own docs would be suppressions.)
        if text.starts_with("///")
            || text.starts_with("//!")
            || text.starts_with("/**")
            || text.starts_with("/*!")
        {
            continue;
        }
        let Some((rule, reason)) = diag::parse_suppression(text) else {
            continue;
        };
        let comment_line = index.line_of(t.start);
        // Trailing comments cover their own line; standalone comments
        // cover the next line that holds code.
        let trailing = sig
            .iter()
            .any(|s| s.start < t.start && index.line_of(s.start) == comment_line);
        let target_line = if trailing {
            comment_line
        } else {
            sig.iter()
                .find(|s| s.start >= t.end)
                .map_or(comment_line, |s| index.line_of(s.start))
        };
        let span = (t.start, t.end);
        if rule == "suppression-requires-reason" {
            meta.push((
                span,
                "the suppression meta-rule cannot itself be allowed".to_owned(),
            ));
        } else if rules::rule(&rule).is_none() {
            meta.push((
                span,
                format!("`allow({rule})` names a rule ccs-lint does not know"),
            ));
        } else if reason.is_none() {
            meta.push((
                span,
                format!("`allow({rule})` without a reason — reasons are mandatory"),
            ));
        }
        out.push(Suppression {
            rule,
            reason,
            span,
            target_line,
        });
    }
    (out, meta)
}

/// Directory names the tree walk never descends into.
const SKIP_DIRS: &[&str] = &["target", "vendor", "node_modules"];

/// Walks `root` and lints every `.rs` file, returning per-file results in
/// path order. Skips build output, `vendor/` (covered by `--vendor`
/// hashing instead), dot-directories, and the lint crate's own seeded
/// fixtures.
pub fn lint_tree(root: &Path) -> io::Result<Vec<LintedFile>> {
    let mut paths = Vec::new();
    collect_rs_files(root, root, &mut paths)?;
    paths.sort();
    let mut out = Vec::new();
    for rel in paths {
        let bytes = std::fs::read(root.join(&rel))?;
        let src = String::from_utf8_lossy(&bytes).into_owned();
        out.push(lint_source(&rel, &src));
    }
    Ok(out)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            let rel = rel_path(root, &path);
            if rel == "crates/lint/tests/fixtures" {
                continue; // seeded violations — linted by the golden tests
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel_path(root, &path));
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let s = rel.to_string_lossy();
    if std::path::MAIN_SEPARATOR == '/' {
        s.into_owned()
    } else {
        s.replace(std::path::MAIN_SEPARATOR, "/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_with_reason_silences_one_line() {
        let src = "fn f() -> ResumeState {\n    // ccs-lint: allow(resume-state-construction-confined, reason = \"test forge\")\n    ResumeState { format: 2 }\n}\n";
        let report = lint_source("crates/core/src/x.rs", src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn trailing_suppression_covers_its_own_line() {
        let src = "fn f(b: &[u8]) -> u8 {\n    b[0] // ccs-lint: allow(no-panic-in-io-paths, reason = \"len checked by caller\")\n}\n";
        let report = lint_source("crates/core/src/persist.rs", src);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn reasonless_allow_is_itself_a_violation() {
        let src = "fn f() -> ResumeState {\n    // ccs-lint: allow(resume-state-construction-confined)\n    ResumeState { format: 2 }\n}\n";
        let report = lint_source("crates/core/src/x.rs", src);
        let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"suppression-requires-reason"));
        assert!(
            rules.contains(&"resume-state-construction-confined"),
            "a reasonless allow must not silence the finding"
        );
    }

    #[test]
    fn unknown_rule_in_allow_is_flagged() {
        let src = "// ccs-lint: allow(no-such-rule, reason = \"oops\")\nfn f() {}\n";
        let report = lint_source("crates/core/src/x.rs", src);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "suppression-requires-reason");
    }

    #[test]
    fn suppression_does_not_leak_to_other_lines() {
        let src = "fn f() -> (ResumeState, ResumeState) {\n    // ccs-lint: allow(resume-state-construction-confined, reason = \"one only\")\n    let a = ResumeState { format: 2 };\n    let b = ResumeState { format: 2 };\n    (a, b)\n}\n";
        let report = lint_source("crates/core/src/x.rs", src);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.suppressed, 1);
    }

    #[test]
    fn integration_test_paths_relax_most_rules_but_not_resume() {
        let src = "fn helper_guarded(x: u32) -> u32 { x }\nfn forge() -> ResumeState { ResumeState { format: 2 } }\n";
        let report = lint_source("tests/durability.rs", src);
        let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec!["resume-state-construction-confined"]);
    }
}
