//! Source-level lint pass: token lints over every first-party file
//! (DESIGN.md §17).
//!
//! [`lexer`](crate::lexer) tokenizes each file — comments and string
//! literals become opaque, so prose can never fire a lint — and collects its
//! `mpicheck:allow` directives with their mandatory justifications. This
//! module matches short token patterns over that stream, then applies the
//! suppressions. No rule needs control flow: the collective-ordering rules
//! that did (SL006–SL009) are retired in favour of confining every
//! collective call to the one transport (SL015), `#[must_use]` on mpisim's
//! request and plan handles, and the checked runtime's MC002/MC005/MC006.
//!
//! ## Catalogue
//!
//! * **SL001** (error) — bare `.unwrap()` outside test code.
//! * **SL002** (error) — `thread::sleep` with a hardcoded duration
//!   literal; pauses come from configuration (`Backoff` / `FaultPlan`).
//! * **SL003** (error) — a file posts non-blocking exchanges but contains
//!   no completion path (`wait`/`cancel`) at all. A file-level backstop; a
//!   request dropped incomplete on a path a sweep executes is MC002.
//! * **SL004** (error) — direct `Planner::new` outside `crates/cfft/src`;
//!   consumers must draw plans from `PlanCache::global()`. Every transform
//!   entry point is in scope, `PencilSession` as much as `FftSession`.
//! * **SL005** (error) — `.expect(` in a recovery-path or service module
//!   (path contains `recover` or `service`): recovery code must degrade,
//!   never die, and the multi-tenant service scheduler must never take
//!   every tenant down with one job's panic. Covers the pencil backend's
//!   two-round degradation ladder, the slab ladder, and the
//!   admission/scheduling layer.
//! * **SL010** (error) — `Instant::now`/`SystemTime::now` inside the
//!   deterministic simulation core; virtual time only, so schedules
//!   replay exactly.
//! * **SL011** (warning) — an `as` cast to a ≤ 32-bit integer applied to
//!   exchange-geometry arithmetic (counts, displacements, sizes) that can
//!   silently truncate.
//! * **SL012** (warning) — float `==`/`!=` on spectrum data outside
//!   tests; compare against a tolerance.
//! * **SL013** (error) — an `mpicheck:allow` without a trailing
//!   justification (the finding is still suppressed; the directive itself
//!   is reported).
//! * **SL014** (warning) — a justified `mpicheck:allow` that no longer
//!   matches any finding (dead suppression).
//! * **SL015** (error) — a call to one of mpisim's exchange or ULFM
//!   collectives (`ialltoall`, `ialltoallv`, `alltoall_init`,
//!   `alltoallv_init`, `barrier`, `agree`, `shrink`, `revoke`) outside the
//!   transport (`crates/core/src/transport.rs` and `recover.rs`).
//!   Algorithm 1 is correct only if every rank posts, tests and waits each
//!   tile's exchange in the same order; keeping every such call in two
//!   files is what lets the conformance table's runs stand for all of
//!   them. The mpisim/simnet runtimes, which implement the collectives,
//!   are exempt.
//!
//! SL006–SL009 are retired codes and, like any retired code, are never
//! reused. A deliberate exception is suppressed in place with
//! `// mpicheck:allow(SL0xx): reason` on the offending line or the line
//! above. The meta-lints SL013/SL014 are not themselves suppressible.

use crate::lexer::{lex, Lexed, TokKind};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Severity of a lint: errors gate CI; warnings inform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintSeverity {
    /// Advisory; reported but does not by itself fail `is_clean` checks
    /// that only count errors (the repo gate counts both).
    Warning,
    /// Must be fixed or allowed with a justification.
    Error,
}

impl fmt::Display for LintSeverity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LintSeverity::Warning => "warning",
            LintSeverity::Error => "error",
        })
    }
}

/// Source lint identifiers (DESIGN.md §17 catalogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SrcLintId {
    /// `SL001` — bare `.unwrap()` in non-test code.
    BareUnwrap,
    /// `SL002` — `thread::sleep` with a hardcoded duration literal.
    HardcodedSleep,
    /// `SL003` — non-blocking post in a file with no completion path.
    PostWithoutWait,
    /// `SL004` — direct `Planner::new` outside the `cfft` crate.
    PlannerOutsideCache,
    /// `SL005` — `.expect(` in a recovery-path or service module.
    ExpectInRecovery,
    /// `SL010` — wall-clock read inside deterministic simulation code.
    WallClockInSim,
    /// `SL011` — truncating `as` cast in exchange-geometry arithmetic.
    TruncatingCastInGeometry,
    /// `SL012` — float `==`/`!=` on spectrum data outside tests.
    FloatEqOnSpectrum,
    /// `SL013` — `mpicheck:allow` without a justification.
    UnjustifiedAllow,
    /// `SL014` — `mpicheck:allow` matching no finding (dead suppression).
    DeadAllow,
    /// `SL015` — an mpisim exchange or ULFM collective called outside the
    /// transport.
    CollectiveOutsideTransport,
}

/// Every lint, in catalogue order (drives the SARIF rules array).
pub const ALL_LINTS: [SrcLintId; 11] = [
    SrcLintId::BareUnwrap,
    SrcLintId::HardcodedSleep,
    SrcLintId::PostWithoutWait,
    SrcLintId::PlannerOutsideCache,
    SrcLintId::ExpectInRecovery,
    SrcLintId::WallClockInSim,
    SrcLintId::TruncatingCastInGeometry,
    SrcLintId::FloatEqOnSpectrum,
    SrcLintId::UnjustifiedAllow,
    SrcLintId::DeadAllow,
    SrcLintId::CollectiveOutsideTransport,
];

impl SrcLintId {
    /// Stable code, e.g. `"SL001"`.
    pub fn code(&self) -> &'static str {
        match self {
            SrcLintId::BareUnwrap => "SL001",
            SrcLintId::HardcodedSleep => "SL002",
            SrcLintId::PostWithoutWait => "SL003",
            SrcLintId::PlannerOutsideCache => "SL004",
            SrcLintId::ExpectInRecovery => "SL005",
            SrcLintId::WallClockInSim => "SL010",
            SrcLintId::TruncatingCastInGeometry => "SL011",
            SrcLintId::FloatEqOnSpectrum => "SL012",
            SrcLintId::UnjustifiedAllow => "SL013",
            SrcLintId::DeadAllow => "SL014",
            SrcLintId::CollectiveOutsideTransport => "SL015",
        }
    }

    /// Severity class of the lint.
    pub fn severity(&self) -> LintSeverity {
        match self {
            SrcLintId::TruncatingCastInGeometry
            | SrcLintId::FloatEqOnSpectrum
            | SrcLintId::DeadAllow => LintSeverity::Warning,
            _ => LintSeverity::Error,
        }
    }

    /// One-line rule description (the SARIF `shortDescription`).
    pub fn summary(&self) -> &'static str {
        match self {
            SrcLintId::BareUnwrap => "bare `.unwrap()` in non-test code",
            SrcLintId::HardcodedSleep => "thread::sleep with a hardcoded duration literal",
            SrcLintId::PostWithoutWait => "non-blocking post in a file with no completion path",
            SrcLintId::PlannerOutsideCache => "direct Planner::new outside the cfft crate",
            SrcLintId::ExpectInRecovery => ".expect( in a recovery-path or service module",
            SrcLintId::WallClockInSim => "wall-clock read inside deterministic simulation code",
            SrcLintId::TruncatingCastInGeometry => {
                "truncating `as` cast in exchange-geometry arithmetic"
            }
            SrcLintId::FloatEqOnSpectrum => "float ==/!= on spectrum data",
            SrcLintId::UnjustifiedAllow => "mpicheck:allow without a justification",
            SrcLintId::DeadAllow => "mpicheck:allow matching no finding",
            SrcLintId::CollectiveOutsideTransport => {
                "mpisim exchange or ULFM collective called outside the transport"
            }
        }
    }
}

/// One source-lint finding.
#[derive(Debug, Clone)]
pub struct SrcFinding {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which lint fired.
    pub id: SrcLintId,
    /// Human-readable detail.
    pub message: String,
}

impl SrcFinding {
    /// Severity of the finding (delegates to the lint).
    pub fn severity(&self) -> LintSeverity {
        self.id.severity()
    }
}

impl fmt::Display for SrcFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}/{}] {}",
            self.file,
            self.line,
            self.id.code(),
            self.severity(),
            self.message
        )
    }
}

/// Outcome of a full workspace run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Unsuppressed findings.
    pub findings: Vec<SrcFinding>,
    /// Number of source files scanned.
    pub files: usize,
}

impl LintReport {
    /// Clean means zero findings, warnings included.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

// ---------------------------------------------------------------------------
// File walking
// ---------------------------------------------------------------------------

/// Directories never walked below a scan root.
const SKIP_DIRS: &[&str] = &["vendor", "target", "tests", "benches", ".git"];

/// Collects the `.rs` files in scope: `<root>/src`, `<root>/examples`, and
/// every `<root>/crates/*/src` and `<root>/crates/*/examples`, recursively
/// (which includes `src/bin/`), excluding [`SKIP_DIRS`].
fn source_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut roots = vec![root.join("src"), root.join("examples")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            roots.push(e.path().join("src"));
            roots.push(e.path().join("examples"));
        }
    }
    for r in roots {
        walk(&r, &mut out);
    }
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            let name = e.file_name();
            let skip = name
                .to_str()
                .map(|n| SKIP_DIRS.contains(&n))
                .unwrap_or(true);
            if !skip {
                walk(&p, out);
            }
        } else if p.extension().and_then(|x| x.to_str()) == Some("rs") {
            out.push(p);
        }
    }
}

// ---------------------------------------------------------------------------
// Token lints
// ---------------------------------------------------------------------------

/// Narrow integer types an `as` cast can truncate into on a 64-bit host.
const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Identifiers that mark a value as exchange geometry (counts,
/// displacements, extents) for SL011.
fn is_geometry_ident(s: &str) -> bool {
    s.contains("count")
        || s.contains("displ")
        || s.contains("offset")
        || matches!(
            s,
            "len"
                | "size"
                | "extent"
                | "extents"
                | "total"
                | "bytes"
                | "elems"
                | "nelems"
                | "n_elems"
        )
}

/// Files whose determinism SL010 protects: the simulated network, the
/// checker, the stage cost table and its two interpreters (the simnet
/// overlap environment and the service's emitter and engine). (The
/// real-time stall watchdog in mpisim's NBC engine is deliberately out of
/// scope.)
fn in_deterministic_scope(rel: &str) -> bool {
    rel.starts_with("crates/simnet/src")
        || rel == "crates/mpisim/src/check.rs"
        || rel == "crates/core/src/stage.rs"
        || rel == "crates/core/src/sim_env.rs"
        || rel == "crates/core/src/service.rs"
}

/// mpisim's non-blocking and persistent all-to-all posts and its blocking
/// and ULFM collectives: the calls SL015 confines to the transport.
const CONFINED_CALLS: [&str; 8] = [
    "ialltoall",
    "ialltoallv",
    "alltoall_init",
    "alltoallv_init",
    "barrier",
    "agree",
    "shrink",
    "revoke",
];

/// The transport: the tile-exchange layer that posts and frees, and the
/// recovery driver that agrees, revokes and shrinks.
const TRANSPORT_FILES: [&str; 2] = ["crates/core/src/transport.rs", "crates/core/src/recover.rs"];

/// `true` where SL015 does not apply: the transport itself, and the
/// runtimes that implement the collectives.
fn may_call_collectives(rel: &str) -> bool {
    TRANSPORT_FILES.contains(&rel)
        || rel.starts_with("crates/mpisim/src")
        || rel.starts_with("crates/simnet/src")
}

fn push(out: &mut Vec<SrcFinding>, rel: &str, line: usize, id: SrcLintId, message: String) {
    out.push(SrcFinding {
        file: rel.to_owned(),
        line,
        id,
        message,
    });
}

/// Runs the purely token-local lints over one lexed file.
fn token_lints(rel: &str, lx: &Lexed, out: &mut Vec<SrcFinding>) {
    let toks = &lx.tokens;
    let ident_at = |i: usize, s: &str| toks.get(i).is_some_and(|t| t.is_ident(s));
    let punct_at = |i: usize, s: &str| toks.get(i).is_some_and(|t| t.is_punct(s));

    // SL003 support: completion idents anywhere in the file (test helpers
    // that drain requests count — this is a file-level backstop only).
    let has_completion = toks.iter().any(|t| {
        t.kind == TokKind::Ident && (t.text.contains("wait") || t.text.contains("cancel"))
    });
    let mut first_post: Option<usize> = None;
    let confined = !may_call_collectives(rel);

    for i in 0..toks.len() {
        let t = &toks[i];
        if lx.in_test(t.line) {
            continue;
        }
        // SL001 — exact `.unwrap()` token sequence; `.unwrap_or(…)` is a
        // different identifier and never matches.
        if t.is_punct(".")
            && ident_at(i + 1, "unwrap")
            && punct_at(i + 2, "(")
            && punct_at(i + 3, ")")
        {
            push(
                out,
                rel,
                toks[i + 1].line,
                SrcLintId::BareUnwrap,
                "bare `unwrap()` call in non-test code; use a typed error or a diagnostic \
                 `expect(..)`"
                    .to_owned(),
            );
        }
        // SL002 — `thread::sleep(… Duration::from_*(<literal>) …)`.
        if t.is_ident("sleep") && i >= 2 && punct_at(i - 1, "::") && ident_at(i - 2, "thread") {
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut literal = false;
            while let Some(tj) = toks.get(j) {
                match tj.text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth <= 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if tj.is_ident("Duration")
                    && punct_at(j + 1, "::")
                    && toks
                        .get(j + 2)
                        .is_some_and(|n| n.kind == TokKind::Ident && n.text.starts_with("from_"))
                    && punct_at(j + 3, "(")
                    && toks
                        .get(j + 4)
                        .is_some_and(|n| matches!(n.kind, TokKind::Int | TokKind::Float))
                {
                    literal = true;
                }
                j += 1;
            }
            if literal {
                push(
                    out,
                    rel,
                    t.line,
                    SrcLintId::HardcodedSleep,
                    "thread::sleep with a hardcoded duration literal in library code; take \
                     the pause from configuration (Backoff/FaultPlan)"
                        .to_owned(),
                );
            }
        }
        // SL003 — remember the first post call site.
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "post_a2a" | "ialltoall" | "ialltoallv")
            && i > 0
            && punct_at(i - 1, ".")
            && punct_at(i + 1, "(")
            && first_post.is_none()
        {
            first_post = Some(t.line);
        }
        // SL004 — `Planner::new(` outside cfft.
        if t.is_ident("Planner")
            && punct_at(i + 1, "::")
            && ident_at(i + 2, "new")
            && punct_at(i + 3, "(")
            && !rel.starts_with("crates/cfft/src")
        {
            push(
                out,
                rel,
                t.line,
                SrcLintId::PlannerOutsideCache,
                "direct `Planner::new` outside cfft; draw plans from the shared \
                 `PlanCache::global()` so repeat transforms never replan"
                    .to_owned(),
            );
        }
        // SL005 — `.expect(` in recovery-path and service/admission
        // modules. The service scheduler answers to every tenant at once:
        // a panic there is a cluster-wide outage, not a failed job, so the
        // same degrade-don't-die policy applies.
        if t.is_punct(".")
            && ident_at(i + 1, "expect")
            && punct_at(i + 2, "(")
            && (rel.contains("recover") || rel.contains("service"))
        {
            push(
                out,
                rel,
                toks[i + 1].line,
                SrcLintId::ExpectInRecovery,
                "`.expect(` in a recovery-path or service module; this code must return \
                 typed errors — a panic here kills a survivor or the whole service"
                    .to_owned(),
            );
        }
        // SL010 — wall-clock reads in the deterministic core.
        if (t.is_ident("Instant") || t.is_ident("SystemTime"))
            && punct_at(i + 1, "::")
            && ident_at(i + 2, "now")
            && in_deterministic_scope(rel)
        {
            push(
                out,
                rel,
                t.line,
                SrcLintId::WallClockInSim,
                format!(
                    "`{}::now` inside deterministic simulation code; derive time from the \
                     virtual clock so schedules replay exactly",
                    t.text
                ),
            );
        }
        // SL011 — `<geometry> … as u32`-style narrowing.
        if t.is_ident("as") {
            if let Some(ty) = toks.get(i + 1) {
                if ty.kind == TokKind::Ident && NARROW_INTS.contains(&ty.text.as_str()) {
                    let from = i.saturating_sub(8);
                    let near = toks[from..i]
                        .iter()
                        .rev()
                        .find(|p| p.kind == TokKind::Ident && is_geometry_ident(&p.text));
                    if let Some(g) = near {
                        push(
                            out,
                            rel,
                            t.line,
                            SrcLintId::TruncatingCastInGeometry,
                            format!(
                                "`as {}` near exchange-geometry value `{}` can silently \
                                 truncate; use `try_into` or widen the type",
                                ty.text, g.text
                            ),
                        );
                    }
                }
            }
        }
        // SL012 — float equality: a float literal or a `.re`/`.im` field
        // on either side of `==` / `!=`.
        if t.kind == TokKind::Punct && (t.text == "==" || t.text == "!=") {
            let float_prev = i >= 1 && toks[i - 1].kind == TokKind::Float;
            let float_next = toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Float);
            let reim = |s: &str| s == "re" || s == "im";
            let field_prev = i >= 2
                && punct_at(i - 2, ".")
                && toks
                    .get(i - 1)
                    .is_some_and(|n| n.kind == TokKind::Ident && reim(&n.text));
            let field_next = toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident)
                && punct_at(i + 2, ".")
                && toks
                    .get(i + 3)
                    .is_some_and(|n| n.kind == TokKind::Ident && reim(&n.text))
                && !punct_at(i + 4, ".");
            if float_prev || float_next || field_prev || field_next {
                push(
                    out,
                    rel,
                    t.line,
                    SrcLintId::FloatEqOnSpectrum,
                    "float `==`/`!=` on spectrum data; compare against a tolerance \
                     (absolute or ULP) instead"
                        .to_owned(),
                );
            }
        }
        // SL015 — `.barrier(` / `.ialltoall::<T>(` outside the transport.
        if confined
            && t.kind == TokKind::Ident
            && CONFINED_CALLS.contains(&t.text.as_str())
            && i > 0
            && punct_at(i - 1, ".")
            && (punct_at(i + 1, "(") || punct_at(i + 1, "::"))
        {
            push(
                out,
                rel,
                t.line,
                SrcLintId::CollectiveOutsideTransport,
                format!(
                    "`.{}(` outside the transport; every rank must issue each collective in \
                     the same order, so mpisim's exchanges and ULFM calls live only in {}",
                    t.text,
                    TRANSPORT_FILES.join(" and ")
                ),
            );
        }
    }

    if let Some(line) = first_post {
        if !has_completion {
            push(
                out,
                rel,
                line,
                SrcLintId::PostWithoutWait,
                "posts a non-blocking exchange but the file has no wait or cancel path at \
                 all; in-flight requests must be completed on every path"
                    .to_owned(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Driver: analysis over in-memory sources, suppressions, ordering
// ---------------------------------------------------------------------------

/// Lints a set of in-memory `(workspace-relative path, contents)` sources:
/// the token lints, then each file's suppressions.
pub fn lint_sources(sources: &[(String, String)]) -> Vec<SrcFinding> {
    let lexed: Vec<(&str, Lexed)> = sources
        .iter()
        .map(|(rel, text)| (rel.as_str(), lex(text)))
        .collect();
    let mut findings = Vec::new();
    for (rel, lx) in &lexed {
        token_lints(rel, lx, &mut findings);
    }

    // One finding per (lint, file, line).
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.id.code()).cmp(&(b.file.as_str(), b.line, b.id.code()))
    });
    findings.dedup_by(|a, b| a.id == b.id && a.file == b.file && a.line == b.line);

    for (rel, lx) in &lexed {
        apply_allows(rel, lx, &mut findings);
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.id.code()).cmp(&(b.file.as_str(), b.line, b.id.code()))
    });
    findings
}

/// Applies one file's suppression directives, then reports the
/// meta-findings: SL013 for unjustified directives (which still suppress,
/// so a missing justification never doubles the noise) and SL014 for
/// justified directives that matched nothing. Directives inside test code
/// are ignored entirely. SL013/SL014 are not themselves suppressible.
fn apply_allows(rel: &str, lx: &Lexed, findings: &mut Vec<SrcFinding>) {
    let dirs: Vec<_> = lx.allows.iter().filter(|d| !lx.in_test(d.line)).collect();
    if dirs.is_empty() {
        return;
    }
    let mut used = vec![false; dirs.len()];
    findings.retain(|f| {
        if f.file != rel || matches!(f.id, SrcLintId::UnjustifiedAllow | SrcLintId::DeadAllow) {
            return true;
        }
        for (k, d) in dirs.iter().enumerate() {
            if (d.line == f.line || d.line + 1 == f.line)
                && d.codes.iter().any(|c| c == f.id.code())
            {
                used[k] = true;
                return false;
            }
        }
        true
    });
    for (k, d) in dirs.iter().enumerate() {
        let codes = d.codes.join(", ");
        if d.justification.is_none() {
            push(
                findings,
                rel,
                d.line,
                SrcLintId::UnjustifiedAllow,
                format!(
                    "mpicheck:allow({codes}) without a justification; append `: reason` \
                     explaining why the exception is sound"
                ),
            );
        } else if !used[k] {
            push(
                findings,
                rel,
                d.line,
                SrcLintId::DeadAllow,
                format!(
                    "mpicheck:allow({codes}) no longer matches any finding; remove the \
                     stale suppression"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Workspace entry point
// ---------------------------------------------------------------------------

/// Runs the full lint pass over the workspace rooted at `root`.
pub fn run(root: &Path) -> LintReport {
    let mut sources = Vec::new();
    for path in source_files(root) {
        let Ok(contents) = fs::read_to_string(&path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .into_owned();
        sources.push((rel, contents));
    }
    LintReport {
        findings: lint_sources(&sources),
        files: sources.len(),
    }
}

// ---------------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Human-readable report: one line per finding, then a summary line.
pub fn render_text(r: &LintReport) -> String {
    let mut out = String::new();
    for f in &r.findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    if r.is_clean() {
        out.push_str(&format!(
            "lint: clean ({} lints over {} files)\n",
            ALL_LINTS.len(),
            r.files
        ));
    } else {
        let errors = r
            .findings
            .iter()
            .filter(|f| f.severity() == LintSeverity::Error)
            .count();
        out.push_str(&format!(
            "lint: {} finding(s) ({} error(s), {} warning(s))\n",
            r.findings.len(),
            errors,
            r.findings.len() - errors
        ));
    }
    out
}

/// SARIF 2.1.0 report (one run, one rule per lint) for code-scanning UIs.
pub fn render_sarif(r: &LintReport) -> String {
    let mut out = String::from(
        "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\
         \"name\":\"mpicheck-srclint\",\"rules\":[",
    );
    for (i, id) in ALL_LINTS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}},\
             \"defaultConfiguration\":{{\"level\":\"{}\"}}}}",
            id.code(),
            json_escape(id.summary()),
            id.severity()
        ));
    }
    out.push_str("]}},\"results\":[");
    for (i, f) in r.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"ruleId\":\"{}\",\"level\":\"{}\",\"message\":{{\"text\":\"{}\"}},\
             \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\
             \"region\":{{\"startLine\":{}}}}}}}]}}",
            f.id.code(),
            f.severity(),
            json_escape(&f.message),
            json_escape(&f.file),
            f.line
        ));
    }
    out.push_str("]}]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(rel: &str, src: &str) -> Vec<SrcFinding> {
        lint_sources(&[(rel.to_owned(), src.to_owned())])
    }

    fn codes(findings: &[SrcFinding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.id.code()).collect()
    }

    #[test]
    fn bare_unwrap_is_flagged_but_not_unwrap_or() {
        let src = "fn f() {\n  let x = g().unwrap();\n  let y = g().unwrap_or(0);\n}\n";
        let f = lint_one("x.rs", src);
        assert_eq!(codes(&f), vec!["SL001"]);
        assert_eq!(f[0].line, 2);
        assert_eq!(f[0].severity(), LintSeverity::Error);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "// prose: call .unwrap() then thread::sleep(Duration::from_millis(5))\n\
                   fn f() {\n  let s = \".unwrap()\";\n  let p = \"Planner::new(\";\n\
                   /* .expect( in a block comment */\n}\n";
        assert!(lint_one("crates/core/src/recover_doc.rs", src).is_empty());
    }

    #[test]
    fn test_module_is_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n  fn g() { h().unwrap(); }\n}\n";
        assert!(lint_one("x.rs", src).is_empty());
    }

    #[test]
    fn justified_allow_suppresses_cleanly() {
        let src = "// mpicheck:allow(SL001): fixture literal, never executed\n\
                   fn f() { let x = g().unwrap(); }\n";
        assert!(lint_one("x.rs", src).is_empty());
        let inline = "fn f() { let x = g().unwrap(); } // mpicheck:allow(SL001): fixture\n";
        assert!(lint_one("x.rs", inline).is_empty());
    }

    #[test]
    fn unjustified_allow_suppresses_but_reports_sl013() {
        let src = "// mpicheck:allow(SL001)\nfn f() { let x = g().unwrap(); }\n";
        let f = lint_one("x.rs", src);
        assert_eq!(codes(&f), vec!["SL013"]);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn dead_allow_reports_sl014() {
        let src = "// mpicheck:allow(SL001): this no longer matches anything\nfn f() {}\n";
        let f = lint_one("x.rs", src);
        assert_eq!(codes(&f), vec!["SL014"]);
        assert_eq!(f[0].severity(), LintSeverity::Warning);
    }

    #[test]
    fn hardcoded_sleep_is_flagged_variable_sleep_is_not() {
        let bad = "fn f() { std::thread::sleep(Duration::from_millis(50)); }\n";
        assert_eq!(codes(&lint_one("x.rs", bad)), vec!["SL002"]);
        let wrapped = "fn f() { std::thread::sleep(\n  Duration::from_millis(50)); }\n";
        assert_eq!(codes(&lint_one("x.rs", wrapped)), vec!["SL002"]);
        let good = "fn f() { std::thread::sleep(plan.send_delay_for(me)); }\n";
        assert!(lint_one("x.rs", good).is_empty());
    }

    #[test]
    fn post_with_no_completion_path_at_all_is_sl003() {
        let bad = "fn f(env: &mut E) { env.post_a2a(0); }\n";
        let f = lint_one("x.rs", bad);
        assert!(codes(&f).contains(&"SL003"), "got {f:?}");
        // Any completion ident in the file satisfies the backstop.
        let good = "fn f(env: &mut E) { let r = env.post_a2a(0); env.wait(0, r); }\n";
        assert!(lint_one("x.rs", good).is_empty());
    }

    #[test]
    fn planner_new_outside_cfft_is_flagged_but_cfft_is_exempt() {
        let src = "fn f() { let p = Planner::new(Rigor::Estimate); }\n";
        let f = lint_one("crates/core/src/real_env.rs", src);
        assert_eq!(codes(&f), vec!["SL004"]);
        assert!(lint_one("crates/cfft/src/cache.rs", src).is_empty());
        let cached = "fn f() { let p = PlanCache::global().plan(8, dir, rigor); }\n";
        assert!(lint_one("crates/core/src/real_env.rs", cached).is_empty());
    }

    #[test]
    fn expect_in_recovery_module_is_flagged_elsewhere_is_not() {
        let src = "fn f() { let x = g().expect(\"slab present\"); }\n";
        let f = lint_one("crates/core/src/recover.rs", src);
        assert_eq!(codes(&f), vec!["SL005"]);
        // The multi-tenant service is under the same degrade-don't-die
        // policy: a panic in admission or scheduling is an outage.
        let s = lint_one("crates/core/src/service.rs", src);
        assert_eq!(codes(&s), vec!["SL005"]);
        assert!(lint_one("crates/core/src/real_env.rs", src).is_empty());
    }

    #[test]
    fn sl015_collectives_are_confined_to_the_transport() {
        let src = "fn f(c: &C) { c.barrier();\n let r = c.ialltoall::<u64>(s, 1, v); }\n\
                   fn g(c: &C) { let (flags, dead) = c.agree(1);\n c.revoke(); }\n";
        let f = lint_one("crates/core/src/executor.rs", src);
        assert_eq!(codes(&f), vec!["SL015"; 4]);
        let lines: Vec<usize> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![1, 2, 3, 4]);
        for exempt in [
            "crates/core/src/transport.rs",
            "crates/core/src/recover.rs",
            "crates/mpisim/src/coll.rs",
            "crates/simnet/src/proc.rs",
        ] {
            assert!(lint_one(exempt, src).is_empty(), "{exempt}");
        }
        // Definitions, fields, paths and test code are not calls.
        let quiet = "fn barrier(&self) {}\nfn f(s: &S) { let b = s.barrier; use m::shrink; }\n\
                     #[cfg(test)]\nmod tests { fn t(c: &C) { c.barrier(); } }\n";
        assert!(lint_one("crates/core/src/a.rs", quiet).is_empty());
    }

    #[test]
    fn sl010_wall_clock_in_sim_scope_only() {
        let src = "fn f() -> Instant { Instant::now() }\n";
        for scoped in [
            "crates/simnet/src/latency.rs",
            "crates/mpisim/src/check.rs",
            "crates/core/src/stage.rs",
            "crates/core/src/sim_env.rs",
            "crates/core/src/service.rs",
        ] {
            assert_eq!(codes(&lint_one(scoped, src)), vec!["SL010"], "{scoped}");
        }
        // The NBC stall watchdog and bench timing legitimately read real
        // time.
        assert!(lint_one("crates/mpisim/src/nbc.rs", src).is_empty());
        assert!(lint_one("crates/bench/src/main.rs", src).is_empty());
    }

    #[test]
    fn sl011_truncating_geometry_cast() {
        let bad = "fn f(counts: &[usize]) -> u32 { counts[0] as u32 }\n";
        let f = lint_one("crates/core/src/a.rs", bad);
        assert_eq!(codes(&f), vec!["SL011"]);
        assert_eq!(f[0].severity(), LintSeverity::Warning);
        // Widening or non-geometry casts are fine.
        let widen = "fn f(counts: &[usize]) -> u64 { counts[0] as u64 }\n";
        assert!(lint_one("crates/core/src/a.rs", widen).is_empty());
        let color = "fn f(pixel: u64) -> u8 { pixel as u8 }\n";
        assert!(lint_one("crates/core/src/a.rs", color).is_empty());
    }

    #[test]
    fn sl012_float_equality_variants() {
        let lit = "fn f(x: f64) -> bool { x == 0.5 }\n";
        assert_eq!(codes(&lint_one("x.rs", lit)), vec!["SL012"]);
        let field = "fn f(a: C, b: C) -> bool { a.re == b.re }\n";
        assert_eq!(codes(&lint_one("x.rs", field)), vec!["SL012"]);
        // Integer equality and bit-exact comparisons stay silent.
        let int = "fn f(x: usize) -> bool { x == 5 }\n";
        assert!(lint_one("x.rs", int).is_empty());
        let bits = "fn f(a: f64, b: f64) -> bool { a.to_bits() == b.to_bits() }\n";
        assert!(lint_one("x.rs", bits).is_empty());
    }

    #[test]
    fn display_carries_code_and_severity() {
        let f = SrcFinding {
            file: "a.rs".to_owned(),
            line: 3,
            id: SrcLintId::BareUnwrap,
            message: "m".to_owned(),
        };
        assert_eq!(f.to_string(), "a.rs:3: [SL001/error] m");
    }

    #[test]
    fn renderers_are_well_formed() {
        let report = LintReport {
            findings: vec![SrcFinding {
                file: "crates/a/src/b.rs".to_owned(),
                line: 7,
                id: SrcLintId::CollectiveOutsideTransport,
                message: "confine \"quoted\"".to_owned(),
            }],
            files: 1,
        };
        let text = render_text(&report);
        assert!(text.contains("[SL015/error]"));
        assert!(text.contains("1 finding(s) (1 error(s), 0 warning(s))"));
        let sarif = render_sarif(&report);
        assert!(sarif.contains("\"version\":\"2.1.0\""));
        assert!(sarif.contains("\"ruleId\":\"SL015\",\"level\":\"error\""));
        assert!(sarif.contains("\\\"quoted\\\""));
        assert!(sarif.contains("\"startLine\":7"));
        // Every lint appears in the rules array.
        for id in ALL_LINTS {
            assert!(sarif.contains(&format!("\"id\":\"{}\"", id.code())));
        }
    }

    #[test]
    fn workspace_is_currently_clean() {
        // The repo's own source must pass its own lints — errors *and*
        // warnings. This is the regression gate that keeps future findings
        // out of HEAD.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/mpicheck has a workspace root two levels up");
        let report = run(root);
        assert!(report.files > 10, "walker found too few files");
        assert!(
            report.is_clean(),
            "source lints found:\n{}",
            render_text(&report)
        );
    }
}
