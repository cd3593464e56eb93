//! `rom-lint` — the workspace determinism & robustness linter.
//!
//! The paper's evaluation depends on every experiment being bit-for-bit
//! reproducible from a single `u64` seed, and on protocol state machines
//! that degrade into typed errors instead of aborting. Reviewer vigilance
//! does not scale to that bar; this crate machine-enforces it with a
//! from-scratch token-level scanner (no external dependencies) and seven
//! project-specific rules:
//!
//! - **R1 `unordered-collections`** — no `HashMap`/`HashSet` in the
//!   deterministic crates (`sim`, `obs`, `engine`, `rost`, `cer`,
//!   `overlay`, `chaos`).
//! - **R2 `ambient-entropy`** — no `Instant::now`/`SystemTime`/
//!   `thread_rng`/`rand::rng` outside `bench`.
//! - **R3 `panic-sites`** — no `unwrap()`/`expect()`/`panic!`/
//!   `unreachable!` in non-test code of the protocol crates
//!   (`rost`, `cer`).
//! - **R4 `float-compare`** — no `==`/`!=` against float expressions and
//!   no `partial_cmp(..).unwrap()`; use `total_cmp`/`to_bits`.
//! - **R5 `stale-arena-index`** — no use of an arena `NodeIndex` binding
//!   after a `&mut` tree mutation on the same tree (the slab's LIFO free
//!   list recycles slots); re-intern after mutating.
//! - **R6 `rng-fork-discipline`** — every RNG stream originates from a
//!   labeled `fork("...")` off the run's root RNG; no ad-hoc seeding,
//!   foreign generator types, or `.clone()`d streams outside `sim`.
//! - **R7 `send-hostile-state`** — no new `RefCell`/`Rc`/`thread_local!`
//!   in crates the parallel sweep engine must keep `Send`.
//!
//! R1–R4 are single-token-shape rules; R5–R6 run on the scope-aware walk
//! in [`scope`] (a brace/statement tree over the same lexer — see
//! DESIGN.md "Scope-aware lint passes").
//!
//! Policy lives in the checked-in `lint.toml`. Individual sites are
//! suppressible with an auditable inline comment that must carry a
//! justification:
//!
//! ```text
//! // rom-lint: allow(panic-sites) -- slot was bounds-checked two lines up
//! ```
//!
//! Run it as `cargo run -p rom-lint` (scan the workspace per `lint.toml`)
//! or `cargo run -p rom-lint -- path/to/file.rs` (scan explicit paths with
//! every rule enabled, regardless of crate policy). `--format json` emits
//! the same findings as stable sorted records, suppressed sites included.

pub mod config;
pub mod lexer;
pub mod rules;
pub mod scope;

pub use config::{Config, ConfigError};
pub use rules::{Rule, Violation};

use lexer::LexedFile;
use std::path::{Path, PathBuf};

/// A violation located in a file.
#[derive(Debug, Clone)]
pub struct FileViolation {
    /// Path as reported (relative to the workspace root when scanning the
    /// workspace).
    pub path: PathBuf,
    /// The finding.
    pub violation: Violation,
    /// The trimmed source line the violation fired on.
    pub snippet: String,
    /// The allow justification, for suppressed findings.
    pub justification: Option<String>,
}

/// The outcome of a scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Active violations across all scanned files, in path/line order.
    pub violations: Vec<FileViolation>,
    /// Findings silenced by a justified `rom-lint: allow` — not failures,
    /// but part of the auditable record (`--format json` includes them).
    pub suppressed: Vec<FileViolation>,
    /// How many `.rs` files were scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the scan is clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the report as the CLI prints it.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for fv in &self.violations {
            let v = &fv.violation;
            let _ = writeln!(
                out,
                "{}:{}: [{} {}] {}",
                fv.path.display(),
                v.line,
                v.rule.shorthand(),
                v.rule.id(),
                v.message
            );
        }
        let _ = writeln!(
            out,
            "rom-lint: {} violation(s) across {} file(s)",
            self.violations.len(),
            self.files_scanned
        );
        out
    }

    /// Renders the report as JSON: stable, sorted records (path, line,
    /// rule, suppression status last) so diffs between CI runs are
    /// meaningful. Suppressed findings are included with their
    /// justification; active ones carry `"suppressed": false`.
    #[must_use]
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut records: Vec<(&FileViolation, bool)> = self
            .violations
            .iter()
            .map(|fv| (fv, false))
            .chain(self.suppressed.iter().map(|fv| (fv, true)))
            .collect();
        records.sort_by(|(a, asup), (b, bsup)| {
            (&a.path, a.violation.line, a.violation.rule, *asup).cmp(&(
                &b.path,
                b.violation.line,
                b.violation.rule,
                *bsup,
            ))
        });
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"active\": {},", self.violations.len());
        let _ = writeln!(out, "  \"suppressed\": {},", self.suppressed.len());
        out.push_str("  \"violations\": [");
        for (k, (fv, suppressed)) in records.iter().enumerate() {
            let v = &fv.violation;
            if k > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(out, "\"rule\": \"{}\", ", v.rule.id());
            let _ = write!(out, "\"shorthand\": \"{}\", ", v.rule.shorthand());
            let _ = write!(
                out,
                "\"file\": \"{}\", ",
                json_escape(&fv.path.to_string_lossy().replace('\\', "/"))
            );
            let _ = write!(out, "\"line\": {}, ", v.line);
            let _ = write!(out, "\"message\": \"{}\", ", json_escape(&v.message));
            let _ = write!(out, "\"snippet\": \"{}\", ", json_escape(&fv.snippet));
            let _ = write!(out, "\"suppressed\": {suppressed}");
            if let Some(just) = &fv.justification {
                let _ = write!(out, ", \"justification\": \"{}\"", json_escape(just));
            }
            out.push('}');
        }
        if records.is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A violation silenced by a justified `rom-lint: allow` comment.
#[derive(Debug, Clone)]
pub struct SuppressedViolation {
    /// The silenced finding.
    pub violation: Violation,
    /// The justification text after `--` in the allow comment.
    pub justification: String,
}

/// Scans one source text with the given rules, honouring inline
/// suppressions. Malformed or unjustified `rom-lint: allow` comments are
/// reported as `allow-syntax` violations.
#[must_use]
pub fn scan_source(source: &str, rules: &[Rule]) -> Vec<Violation> {
    scan_source_full(source, rules).0
}

/// Like [`scan_source`], but also returns the findings a justified allow
/// silenced — the auditable half of the suppression ledger.
#[must_use]
pub fn scan_source_full(source: &str, rules: &[Rule]) -> (Vec<Violation>, Vec<SuppressedViolation>) {
    let lexed = LexedFile::lex(source);
    let raw = rules::check(&lexed, rules);

    // Partition suppressions into usable ones and syntax errors.
    let mut usable: Vec<(Rule, u32, &str)> = Vec::new();
    let mut meta: Vec<Violation> = Vec::new();
    for s in &lexed.suppressions {
        match (Rule::parse(&s.rule), &s.justification) {
            (Some(rule), Some(just)) => usable.push((rule, s.target_line, just.as_str())),
            (Some(_), None) => meta.push(Violation {
                rule: Rule::AllowSyntax,
                line: s.comment_line,
                message: format!(
                    "`rom-lint: allow({})` needs a justification: write `allow({}) -- <why this site is sound>`",
                    s.rule, s.rule
                ),
            }),
            (None, _) => meta.push(Violation {
                rule: Rule::AllowSyntax,
                line: s.comment_line,
                message: format!(
                    "unknown rule `{}` in rom-lint allow comment (known: unordered-collections, ambient-entropy, panic-sites, float-compare, stale-arena-index, rng-fork-discipline, send-hostile-state)",
                    s.rule
                ),
            }),
        }
    }

    let mut active = Vec::new();
    let mut suppressed = Vec::new();
    for v in raw {
        match usable
            .iter()
            .find(|(rule, line, _)| *rule == v.rule && *line == v.line)
        {
            Some((_, _, just)) => suppressed.push(SuppressedViolation {
                violation: v,
                justification: (*just).to_string(),
            }),
            None => active.push(v),
        }
    }
    active.extend(meta);
    active.sort_by_key(|v| (v.line, v.rule));
    suppressed.sort_by_key(|s| (s.violation.line, s.violation.rule));
    (active, suppressed)
}

/// Derives the crate name governing `rel_path` (`crates/<name>/…` →
/// `<name>`; everything else is the root `rom` package).
#[must_use]
pub fn crate_of(rel_path: &Path) -> String {
    let mut parts = rel_path.components().filter_map(|c| match c {
        std::path::Component::Normal(os) => os.to_str(),
        _ => None,
    });
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        (Some("vendor"), Some(name)) => format!("vendor-{name}"),
        _ => "rom".to_string(),
    }
}

/// Scans the workspace rooted at `root` per `cfg`.
///
/// # Errors
///
/// Propagates I/O errors from reading the tree.
pub fn scan_workspace(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    let mut files: Vec<PathBuf> = Vec::new();
    for dir in &cfg.roots {
        collect_rs_files(&root.join(dir), &mut files)?;
    }
    // Deterministic order, and workspace-relative labels.
    files.sort();
    let mut report = Report::default();
    for abs in files {
        let rel = abs.strip_prefix(root).unwrap_or(&abs).to_path_buf();
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if cfg.exclude.iter().any(|ex| rel_str.starts_with(ex.as_str())) {
            continue;
        }
        let mut rules = cfg.rules_for(&crate_of(&rel));
        // Files under a `tests/` directory are integration tests: whole-file
        // test code, same exemption as `#[cfg(test)]` regions.
        if is_test_file(&rel) {
            rules.retain(|r| r.applies_to_tests());
        }
        report.files_scanned += 1;
        if rules.is_empty() {
            continue;
        }
        let source = std::fs::read_to_string(&abs)?;
        let (active, suppressed) = scan_source_full(&source, &rules);
        for violation in active {
            let snippet = snippet_of(&source, violation.line);
            report.violations.push(FileViolation {
                path: rel.clone(),
                violation,
                snippet,
                justification: None,
            });
        }
        for s in suppressed {
            let snippet = snippet_of(&source, s.violation.line);
            report.suppressed.push(FileViolation {
                path: rel.clone(),
                violation: s.violation,
                snippet,
                justification: Some(s.justification),
            });
        }
    }
    Ok(report)
}

/// Scans explicit paths (files or directories) with every rule enabled.
///
/// # Errors
///
/// Propagates I/O errors from reading the paths.
pub fn scan_paths(paths: &[PathBuf]) -> std::io::Result<Report> {
    let mut files: Vec<PathBuf> = Vec::new();
    for p in paths {
        if p.is_dir() {
            collect_rs_files(p, &mut files)?;
        } else {
            files.push(p.clone());
        }
    }
    files.sort();
    let mut report = Report::default();
    for path in files {
        let source = std::fs::read_to_string(&path)?;
        report.files_scanned += 1;
        let (active, suppressed) = scan_source_full(&source, &Rule::ALL);
        for violation in active {
            let snippet = snippet_of(&source, violation.line);
            report.violations.push(FileViolation {
                path: path.clone(),
                violation,
                snippet,
                justification: None,
            });
        }
        for s in suppressed {
            let snippet = snippet_of(&source, s.violation.line);
            report.suppressed.push(FileViolation {
                path: path.clone(),
                violation: s.violation,
                snippet,
                justification: Some(s.justification),
            });
        }
    }
    Ok(report)
}

/// The trimmed text of 1-based `line` in `source` (empty when out of
/// range — e.g. a suppression comment line folded away by the lexer).
fn snippet_of(source: &str, line: u32) -> String {
    source
        .lines()
        .nth((line as usize).saturating_sub(1))
        .unwrap_or("")
        .trim()
        .to_string()
}

/// Whether `rel_path` is an integration-test file (lives under a `tests/`
/// directory component).
#[must_use]
pub fn is_test_file(rel_path: &Path) -> bool {
    rel_path.components().any(|c| {
        matches!(c, std::path::Component::Normal(os) if os.to_str() == Some("tests"))
    })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_with_justification_silences_a_violation() {
        let src = "// rom-lint: allow(unordered-collections) -- sorted before iteration\nuse std::collections::HashMap;\n";
        assert!(scan_source(src, &[Rule::UnorderedCollections]).is_empty());
    }

    #[test]
    fn suppression_without_justification_is_itself_a_violation() {
        let src = "// rom-lint: allow(unordered-collections)\nuse std::collections::HashMap;\n";
        let v = scan_source(src, &[Rule::UnorderedCollections]);
        // The HashMap is still reported AND the bare allow is flagged.
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|x| x.rule == Rule::AllowSyntax));
        assert!(v.iter().any(|x| x.rule == Rule::UnorderedCollections));
    }

    #[test]
    fn unknown_rule_in_allow_is_flagged() {
        let src = "// rom-lint: allow(made-up-rule) -- because\nfn f() {}\n";
        let v = scan_source(src, &[Rule::UnorderedCollections]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::AllowSyntax);
    }

    #[test]
    fn suppression_only_covers_its_own_rule_and_line() {
        let src = "// rom-lint: allow(panic-sites) -- wrong rule\nuse std::collections::HashMap;\n";
        let v = scan_source(src, &[Rule::UnorderedCollections]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UnorderedCollections);
    }

    #[test]
    fn crate_derivation() {
        assert_eq!(crate_of(Path::new("crates/rost/src/lib.rs")), "rost");
        assert_eq!(crate_of(Path::new("src/lib.rs")), "rom");
        assert_eq!(crate_of(Path::new("tests/determinism.rs")), "rom");
        assert_eq!(
            crate_of(Path::new("vendor/proptest/src/lib.rs")),
            "vendor-proptest"
        );
    }
}
