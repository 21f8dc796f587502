//! Source-level lint pass (`SL001`–`SL014`): token-aware, path-sensitive,
//! and interprocedural.
//!
//! The pass is a pipeline (DESIGN.md §17):
//!
//! 1. [`lexer`](crate::lexer) tokenizes every first-party source file.
//!    Comments and string literals become opaque — prose can never fire a
//!    lint — and `mpicheck:allow` directives are collected together with
//!    their (now mandatory) justifications.
//! 2. [`summary`](crate::summary) parses each function into an ordered
//!    tree of collective operations, branches, loops, early exits, and
//!    call edges.
//! 3. [`callgraph`](crate::callgraph) closes the call edges into
//!    transitive effect sets (calling `wait_recover` eventually `wait`s;
//!    `cancel_all` disposes of requests two frames down).
//! 4. This module walks the token stream (SL001–SL005, SL010–SL012) and
//!    the summaries plus call graph (SL006–SL009), then applies
//!    suppressions, severities, and the checked-in baseline.
//!
//! ## Catalogue
//!
//! * **SL001** (error) — bare `.unwrap()` outside test code.
//! * **SL002** (error) — `thread::sleep` with a hardcoded duration
//!   literal; pauses come from configuration (`Backoff` / `FaultPlan`).
//! * **SL003** (error) — a file posts non-blocking exchanges but contains
//!   no completion path (`wait`/`cancel`) at all. File-level backstop;
//!   SL008 does the per-path reasoning.
//! * **SL004** (error) — direct `Planner::new` outside `crates/cfft/src`;
//!   consumers must draw plans from `PlanCache::global()`. Every transform
//!   entry point is in scope, `PencilSession` as much as `FftSession`.
//! * **SL005** (error) — `.expect(` in a recovery-path or service module
//!   (path contains `recover` or `service`): recovery code must degrade,
//!   never die, and the multi-tenant service scheduler must never take
//!   every tenant down with one job's panic. Covers the pencil backend's
//!   two-round degradation ladder, the slab ladder, and the
//!   admission/scheduling layer.
//! * **SL006** (error) — rank-divergent collective: a collective reachable
//!   only under control flow derived from `.rank()` (the ParCoach-style
//!   mismatch shape). The mpisim/simnet runtime itself is exempt — it
//!   *implements* the rank-asymmetric internals of the collectives.
//! * **SL007** (error) — persistent `_init` without a `free` on some path
//!   (static complement of the runtime lint MC006).
//! * **SL008** (error) — a posted request not dominated by a
//!   `wait`/`cancel` on an early-return (`?`/`return`) or fall-through
//!   path.
//! * **SL009** (error) — a blocking collective (`barrier`/`agree`/
//!   `shrink`) issued while a non-blocking request is provably in flight
//!   on every path: the static deadlock shape.
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
//!
//! A deliberate exception is suppressed in place with
//! `// mpicheck:allow(SL0xx): reason` on the offending line or the line
//! above. The meta-lints SL013/SL014 are not themselves suppressible.
//!
//! Grandfathered findings live in `mpicheck.baseline` at the workspace
//! root (regenerate with `cargo xtask lint --update-baseline`). Baseline
//! entries are fingerprinted over code, file, and the *trimmed text* of
//! the offending line, so they survive line-number churn but expire when
//! the line itself changes.

use crate::callgraph::{build as build_callgraph, CallGraph};
use crate::lexer::{lex, Lexed, TokKind};
use crate::summary::{summarize, Event, FnSummary, Node, OpKind, Stmt};
use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Severity of a lint: errors gate CI; warnings inform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintSeverity {
    /// Advisory; reported but does not by itself fail `is_clean` checks
    /// that only count errors (the repo gate counts both).
    Warning,
    /// Must be fixed, allowed with justification, or baselined.
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
    /// `SL006` — collective guarded by rank-dependent control flow.
    RankDivergentCollective,
    /// `SL007` — persistent `_init` without a `free` on some path.
    InitWithoutFree,
    /// `SL008` — posted request not dominated by wait/cancel on a path.
    PostNotDominated,
    /// `SL009` — blocking collective while a request is in flight.
    BlockingWhileInFlight,
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
}

/// Every lint, in catalogue order (drives the SARIF rules array).
pub const ALL_LINTS: [SrcLintId; 14] = [
    SrcLintId::BareUnwrap,
    SrcLintId::HardcodedSleep,
    SrcLintId::PostWithoutWait,
    SrcLintId::PlannerOutsideCache,
    SrcLintId::ExpectInRecovery,
    SrcLintId::RankDivergentCollective,
    SrcLintId::InitWithoutFree,
    SrcLintId::PostNotDominated,
    SrcLintId::BlockingWhileInFlight,
    SrcLintId::WallClockInSim,
    SrcLintId::TruncatingCastInGeometry,
    SrcLintId::FloatEqOnSpectrum,
    SrcLintId::UnjustifiedAllow,
    SrcLintId::DeadAllow,
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
            SrcLintId::RankDivergentCollective => "SL006",
            SrcLintId::InitWithoutFree => "SL007",
            SrcLintId::PostNotDominated => "SL008",
            SrcLintId::BlockingWhileInFlight => "SL009",
            SrcLintId::WallClockInSim => "SL010",
            SrcLintId::TruncatingCastInGeometry => "SL011",
            SrcLintId::FloatEqOnSpectrum => "SL012",
            SrcLintId::UnjustifiedAllow => "SL013",
            SrcLintId::DeadAllow => "SL014",
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
            SrcLintId::RankDivergentCollective => {
                "collective guarded by rank-dependent control flow"
            }
            SrcLintId::InitWithoutFree => "persistent _init without a free on some path",
            SrcLintId::PostNotDominated => {
                "posted request not dominated by wait/cancel on an exit path"
            }
            SrcLintId::BlockingWhileInFlight => {
                "blocking collective while a non-blocking request is in flight"
            }
            SrcLintId::WallClockInSim => "wall-clock read inside deterministic simulation code",
            SrcLintId::TruncatingCastInGeometry => {
                "truncating `as` cast in exchange-geometry arithmetic"
            }
            SrcLintId::FloatEqOnSpectrum => "float ==/!= on spectrum data",
            SrcLintId::UnjustifiedAllow => "mpicheck:allow without a justification",
            SrcLintId::DeadAllow => "mpicheck:allow matching no finding",
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

/// Outcome of a full workspace run: active findings, what the baseline
/// absorbed, and what the baseline still lists but the code no longer has.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Active (non-baselined, non-suppressed) findings.
    pub findings: Vec<SrcFinding>,
    /// Findings matched and absorbed by `mpicheck.baseline`.
    pub baselined: Vec<SrcFinding>,
    /// Baseline entries that matched nothing (fix landed — remove them).
    pub stale_baseline: Vec<String>,
    /// Number of source files scanned.
    pub files: usize,
    /// Number of function summaries analysed.
    pub functions: usize,
}

impl LintReport {
    /// Clean means zero active findings (warnings included) and zero
    /// stale baseline entries.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.stale_baseline.is_empty()
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
// Token lints (SL001–SL005, SL010–SL012)
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
// Path-sensitive checks (SL006–SL009)
// ---------------------------------------------------------------------------

/// An outstanding obligation along a path: a posted request that still
/// needs a `wait`/`cancel` (SL008/SL009), or an initialised persistent
/// plan that still needs a `free` (SL007).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Ob {
    /// `true` for a posted request; `false` for a persistent plan.
    post: bool,
    /// The `let` binding holding it, when trackable.
    binding: Option<String>,
    /// Line of the creating operation (where leaks are reported).
    line: usize,
    /// Creating-statement identity (for merges at join points).
    id: usize,
    /// Held on *every* path into the current point (drives SL009).
    must: bool,
}

/// Abstract state flowed through a function body.
#[derive(Debug, Clone, Default)]
struct PathState {
    obs: Vec<Ob>,
    /// Bindings whose value derives from `.rank()`.
    taints: BTreeSet<String>,
}

struct FnCtx<'a> {
    file: &'a str,
    graph: &'a CallGraph,
    findings: &'a mut Vec<SrcFinding>,
    next_id: usize,
    /// SL006 applies (not inside the mpisim/simnet runtime).
    sl006_scope: bool,
}

fn merge_states(states: Vec<PathState>) -> PathState {
    let n = states.len();
    let mut taints = BTreeSet::new();
    let mut merged: Vec<Ob> = Vec::new();
    let mut present: Vec<usize> = Vec::new();
    let mut musts: Vec<usize> = Vec::new();
    for st in &states {
        taints.extend(st.taints.iter().cloned());
        for o in &st.obs {
            if let Some(k) = merged.iter().position(|m| m.id == o.id && m.post == o.post) {
                present[k] += 1;
                if o.must {
                    musts[k] += 1;
                }
            } else {
                merged.push(o.clone());
                present.push(1);
                musts.push(usize::from(o.must));
            }
        }
    }
    for (k, m) in merged.iter_mut().enumerate() {
        m.must = present[k] == n && musts[k] == n;
    }
    PathState {
        obs: merged,
        taints,
    }
}

/// Reports one leaked obligation.
fn report_leak(cx: &mut FnCtx<'_>, o: &Ob, exit: &str) {
    let (id, message) = if o.post {
        (
            SrcLintId::PostNotDominated,
            format!(
                "non-blocking request posted here is not dominated by a wait/cancel on \
                 {exit}; the in-flight exchange leaks on that path"
            ),
        )
    } else {
        (
            SrcLintId::InitWithoutFree,
            format!(
                "persistent plan initialised here is not freed on {exit}; pair every \
                 `_init` with a `free` (setup-once/execute-many, cf. runtime MC006)"
            ),
        )
    };
    push(cx.findings, cx.file, o.line, id, message);
}

/// Executes one linearised statement against the path state. Order
/// matters: blocking-while-in-flight, then discharges, then escapes, then
/// exits, then obligation creation, then taint propagation.
fn exec_stmt(s: &Stmt, mut st: PathState, cx: &mut FnCtx<'_>) -> PathState {
    let id = cx.next_id;
    cx.next_id += 1;

    let mut eff: BTreeSet<OpKind> = BTreeSet::new();
    let mut direct_ops: Vec<(OpKind, usize, bool)> = Vec::new();
    let mut has_drop_call = false;
    let mut mentions: BTreeSet<&str> = BTreeSet::new();
    let mut exit_line: Option<usize> = None;
    let mut has_return = false;
    for e in &s.events {
        match e {
            Event::Op { kind, line, depth0 } => {
                eff.insert(*kind);
                direct_ops.push((*kind, *line, *depth0));
            }
            Event::Call { name, .. } => {
                has_drop_call |= name == "drop";
                eff.extend(cx.graph.effects_of(name).ops);
            }
            Event::Mention { name } => {
                mentions.insert(name.as_str());
            }
            Event::MaybeExit { line } => exit_line = exit_line.or(Some(*line)),
            Event::Return { line } => {
                has_return = true;
                exit_line = exit_line.or(Some(*line));
            }
        }
    }

    // SL009 — a *directly issued* blocking collective while some request
    // is in flight on every path into this statement.
    for (kind, line, _) in &direct_ops {
        if kind.is_blocking() {
            if let Some(o) = st.obs.iter().find(|o| o.post && o.must) {
                push(
                    cx.findings,
                    cx.file,
                    *line,
                    SrcLintId::BlockingWhileInFlight,
                    format!(
                        "blocking collective issued while the request posted at line {} is \
                         still in flight; peers stuck here can never complete the exchange \
                         (deadlock shape)",
                        o.line
                    ),
                );
                break;
            }
        }
    }

    // Discharges: the statement (directly or through callees) waits,
    // cancels, or frees. A mention of a tracked binding targets just that
    // obligation; otherwise every matching obligation is conservatively
    // discharged (e.g. `cancel_all(env, &mut inflight, e)`).
    if eff.contains(&OpKind::Wait) || eff.contains(&OpKind::Cancel) {
        let targeted = st
            .obs
            .iter()
            .any(|o| o.post && o.binding.as_deref().is_some_and(|b| mentions.contains(b)));
        st.obs.retain(|o| {
            if !o.post {
                return true;
            }
            if targeted {
                !o.binding.as_deref().is_some_and(|b| mentions.contains(b))
            } else {
                false
            }
        });
    }
    if eff.contains(&OpKind::Free) {
        let targeted = st
            .obs
            .iter()
            .any(|o| !o.post && o.binding.as_deref().is_some_and(|b| mentions.contains(b)));
        st.obs.retain(|o| {
            if o.post {
                return true;
            }
            if targeted {
                !o.binding.as_deref().is_some_and(|b| mentions.contains(b))
            } else {
                false
            }
        });
    }

    // Escapes: a tracked binding mentioned by a later statement leaves
    // local ownership (pushed into a window, stored, returned) — except
    // `drop(req)`, which is a silent leak, and except `plan.start(…)` /
    // `plan.wait(…)`, which use a plan without surrendering it.
    let keeps_ownership = direct_ops
        .iter()
        .any(|(k, _, _)| matches!(k, OpKind::Start | OpKind::Wait));
    if !has_drop_call {
        st.obs.retain(|o| {
            let Some(b) = o.binding.as_deref() else {
                return true;
            };
            if !mentions.contains(b) {
                return true;
            }
            // A mentioned Post escapes outright; a mentioned Init escapes
            // unless this statement is itself a start/wait on the plan.
            !o.post && keeps_ownership
        });
    }

    // Exits: everything still outstanding leaks on this path.
    if let Some(l) = exit_line {
        let exit = if has_return {
            format!("the return at line {l}")
        } else {
            format!("the `?` exit at line {l}")
        };
        let leaked: Vec<Ob> = st.obs.drain(..).collect();
        for o in &leaked {
            report_leak(cx, o, &exit);
        }
    }

    // Creation: a *direct*, statement-top-level post/init whose value is
    // locally held. Tail expressions and `return`ed values escape to the
    // caller; plain `=` assignments store into something that outlives the
    // statement and are untracked (e.g. `plans[t] = Some(comm._init(…))`).
    if !s.is_tail && !has_return {
        for (kind, line, depth0) in &direct_ops {
            if !depth0 {
                continue;
            }
            let post = match kind {
                OpKind::Post => true,
                OpKind::Init => false,
                _ => continue,
            };
            if post && (eff.contains(&OpKind::Wait) || eff.contains(&OpKind::Cancel)) {
                continue;
            }
            if !post && eff.contains(&OpKind::Free) {
                continue;
            }
            let binding = match (&s.let_binding, s.has_assign) {
                (Some(b), _) => Some(b.clone()),
                (None, true) => continue,
                (None, false) => None,
            };
            st.obs.push(Ob {
                post,
                binding,
                line: *line,
                id,
                must: true,
            });
        }
    }

    // Taint: `let r = comm.rank()` (or any binding derived from a tainted
    // mention) marks the binding rank-dependent.
    if let Some(b) = &s.let_binding {
        let reads_rank = direct_ops.iter().any(|(k, _, _)| *k == OpKind::RankRead);
        if reads_rank || mentions.iter().any(|m| st.taints.contains(*m)) {
            st.taints.insert(b.clone());
        }
    }
    st
}

/// Collectives reachable from a node: direct collective ops plus the
/// transitive collective effects of every call site.
fn reachable_collectives(node: &Node, graph: &CallGraph, out: &mut BTreeSet<OpKind>) {
    let scan_stmt = |s: &Stmt, out: &mut BTreeSet<OpKind>| {
        for e in &s.events {
            match e {
                Event::Op { kind, .. } if kind.is_collective() => {
                    out.insert(*kind);
                }
                Event::Call { name, .. } => {
                    out.extend(graph.effects_of(name).collectives());
                }
                _ => {}
            }
        }
    };
    match node {
        Node::Stmt(s) => scan_stmt(s, out),
        Node::Seq(items) => items
            .iter()
            .for_each(|n| reachable_collectives(n, graph, out)),
        Node::Branch { cond, arms, .. } => {
            scan_stmt(cond, out);
            arms.iter()
                .for_each(|n| reachable_collectives(n, graph, out));
        }
        Node::Loop { header, body } => {
            scan_stmt(header, out);
            reachable_collectives(body, graph, out);
        }
    }
}

/// First directly written collective op in a node, for anchoring SL006.
fn first_collective(node: &Node) -> Option<(OpKind, usize)> {
    let scan_stmt = |s: &Stmt| {
        s.events.iter().find_map(|e| match e {
            Event::Op { kind, line, .. } if kind.is_collective() => Some((*kind, *line)),
            _ => None,
        })
    };
    match node {
        Node::Stmt(s) => scan_stmt(s),
        Node::Seq(items) => items.iter().find_map(first_collective),
        Node::Branch { cond, arms, .. } => {
            scan_stmt(cond).or_else(|| arms.iter().find_map(first_collective))
        }
        Node::Loop { header, body } => scan_stmt(header).or_else(|| first_collective(body)),
    }
}

/// SL006 — arms of a rank-tainted branch must reach identical collective
/// sets (non-exhaustive branches add an implicit empty arm).
fn check_rank_divergence(arms: &[Node], exhaustive: bool, line: usize, cx: &mut FnCtx<'_>) {
    let mut sets: Vec<BTreeSet<OpKind>> = arms
        .iter()
        .map(|a| {
            let mut s = BTreeSet::new();
            reachable_collectives(a, cx.graph, &mut s);
            s
        })
        .collect();
    if !exhaustive {
        sets.push(BTreeSet::new());
    }
    let divergent = sets.windows(2).any(|w| w[0] != w[1]);
    if !divergent {
        return;
    }
    let (anchor_kind, anchor_line) = arms
        .iter()
        .find_map(first_collective)
        .unwrap_or((OpKind::Barrier, line));
    push(
        cx.findings,
        cx.file,
        anchor_line,
        SrcLintId::RankDivergentCollective,
        format!(
            "collective `{anchor_kind:?}` is reachable only under rank-dependent control \
             flow (branch at line {line}); every live rank must issue the same collective \
             sequence"
        ),
    );
}

fn stmt_reads_rank(s: &Stmt) -> bool {
    s.events.iter().any(|e| {
        matches!(
            e,
            Event::Op {
                kind: OpKind::RankRead,
                ..
            }
        )
    })
}

fn stmt_mentions_tainted(s: &Stmt, taints: &BTreeSet<String>) -> bool {
    s.events.iter().any(|e| {
        if let Event::Mention { name } = e {
            taints.contains(name)
        } else {
            false
        }
    })
}

fn walk_node(node: &Node, st: PathState, cx: &mut FnCtx<'_>) -> PathState {
    match node {
        Node::Stmt(s) => exec_stmt(s, st, cx),
        Node::Seq(items) => items.iter().fold(st, |acc, n| walk_node(n, acc, cx)),
        Node::Branch {
            cond,
            arms,
            exhaustive,
            line,
        } => {
            let tainted = stmt_reads_rank(cond) || stmt_mentions_tainted(cond, &st.taints);
            let st = exec_stmt(cond, st, cx);
            if arms.is_empty() {
                return st;
            }
            if tainted && cx.sl006_scope {
                check_rank_divergence(arms, *exhaustive, *line, cx);
            }
            let mut states: Vec<PathState> =
                arms.iter().map(|a| walk_node(a, st.clone(), cx)).collect();
            if !*exhaustive {
                states.push(st);
            }
            merge_states(states)
        }
        Node::Loop { header, body } => {
            let st = exec_stmt(header, st, cx);
            let after = walk_node(body, st.clone(), cx);
            merge_states(vec![st, after])
        }
    }
}

/// Runs the path-sensitive checks over one non-test function.
fn check_fn(f: &FnSummary, graph: &CallGraph, findings: &mut Vec<SrcFinding>) {
    let sl006_scope =
        !(f.file.starts_with("crates/mpisim/src") || f.file.starts_with("crates/simnet/src"));
    let mut cx = FnCtx {
        file: &f.file,
        graph,
        findings,
        next_id: 0,
        sl006_scope,
    };
    let end = walk_node(&f.body, PathState::default(), &mut cx);
    let leaked: Vec<Ob> = end.obs;
    for o in &leaked {
        report_leak(&mut cx, o, "the fall-through function end");
    }
}

// ---------------------------------------------------------------------------
// Driver: analysis over in-memory sources, suppressions, ordering
// ---------------------------------------------------------------------------

/// Lints a set of in-memory `(workspace-relative path, contents)` sources:
/// token lints, path-sensitive checks over the cross-file call graph, and
/// suppression handling. No baseline is applied (that is [`run`]'s job).
pub fn lint_sources(sources: &[(String, String)]) -> Vec<SrcFinding> {
    analyze(sources).0
}

fn analyze(sources: &[(String, String)]) -> (Vec<SrcFinding>, usize) {
    let lexed: Vec<(&str, Lexed)> = sources
        .iter()
        .map(|(rel, text)| (rel.as_str(), lex(text)))
        .collect();
    let mut fns: Vec<FnSummary> = Vec::new();
    for (rel, lx) in &lexed {
        fns.extend(summarize(rel, lx));
    }
    let graph = build_callgraph(&fns);

    let mut findings = Vec::new();
    for (rel, lx) in &lexed {
        token_lints(rel, lx, &mut findings);
    }
    for f in &fns {
        if !f.is_test {
            check_fn(f, &graph, &mut findings);
        }
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
    (findings, fns.len())
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
// Baseline
// ---------------------------------------------------------------------------

/// Name of the checked-in baseline file at the workspace root.
pub const BASELINE_FILE: &str = "mpicheck.baseline";

fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stable fingerprint of a finding: lint code, file, and the trimmed text
/// of the offending line — line-number churn does not invalidate it, a
/// change to the line itself does.
fn fingerprint(code: &str, file: &str, line_text: &str) -> u64 {
    fnv1a64(&format!("{code}|{file}|{}", line_text.trim()))
}

fn line_text(contents: &str, line: usize) -> &str {
    contents.lines().nth(line.saturating_sub(1)).unwrap_or("")
}

/// One parsed baseline entry: `CODE FILE HEXHASH [-- excerpt]`.
#[derive(Debug)]
struct BaselineEntry {
    code: String,
    file: String,
    hash: u64,
    raw: String,
}

fn load_baseline(path: &Path) -> Vec<BaselineEntry> {
    let Ok(text) = fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in text.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let (Some(code), Some(file), Some(hex)) = (parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        let Ok(hash) = u64::from_str_radix(hex, 16) else {
            continue;
        };
        out.push(BaselineEntry {
            code: code.to_owned(),
            file: file.to_owned(),
            hash,
            raw: t.to_owned(),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Workspace entry points
// ---------------------------------------------------------------------------

fn load_sources(root: &Path) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for path in source_files(root) {
        let Ok(contents) = fs::read_to_string(&path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .into_owned();
        out.push((rel, contents));
    }
    out
}

/// Runs the full lint pass over the workspace rooted at `root`, applying
/// the checked-in baseline.
pub fn run(root: &Path) -> LintReport {
    let sources = load_sources(root);
    let files = sources.len();
    let (all, functions) = analyze(&sources);
    let baseline = load_baseline(&root.join(BASELINE_FILE));
    let mut matched = vec![false; baseline.len()];
    let mut findings = Vec::new();
    let mut baselined = Vec::new();
    for f in all {
        let text = sources
            .iter()
            .find(|(rel, _)| *rel == f.file)
            .map(|(_, c)| line_text(c, f.line))
            .unwrap_or("");
        let fp = fingerprint(f.id.code(), &f.file, text);
        let hit = baseline
            .iter()
            .position(|b| b.code == f.id.code() && b.file == f.file && b.hash == fp);
        match hit {
            Some(k) => {
                matched[k] = true;
                baselined.push(f);
            }
            None => findings.push(f),
        }
    }
    let stale_baseline = baseline
        .iter()
        .zip(&matched)
        .filter(|(_, m)| !**m)
        .map(|(b, _)| b.raw.clone())
        .collect();
    LintReport {
        findings,
        baselined,
        stale_baseline,
        files,
        functions,
    }
}

/// Back-compat shim: active findings only (baseline applied).
pub fn lint_workspace(root: &Path) -> Vec<SrcFinding> {
    run(root).findings
}

/// Regenerates `mpicheck.baseline` from the current findings (suppressions
/// respected, previous baseline ignored). Returns the number of entries
/// written.
pub fn update_baseline(root: &Path) -> std::io::Result<usize> {
    let sources = load_sources(root);
    let (all, _) = analyze(&sources);
    let mut out = String::from(
        "# mpicheck source-lint baseline — grandfathered findings.\n\
         # Format: CODE FILE FNV1A64-OF(code|file|trimmed-line) -- excerpt\n\
         # Regenerate with `cargo xtask lint --update-baseline`; entries go\n\
         # stale (and are reported) once the offending line changes.\n",
    );
    for f in &all {
        let text = sources
            .iter()
            .find(|(rel, _)| *rel == f.file)
            .map(|(_, c)| line_text(c, f.line))
            .unwrap_or("");
        let fp = fingerprint(f.id.code(), &f.file, text);
        let excerpt: String = text.trim().chars().take(60).collect();
        out.push_str(&format!(
            "{} {} {fp:016x} -- {excerpt}\n",
            f.id.code(),
            f.file
        ));
    }
    fs::write(root.join(BASELINE_FILE), &out)?;
    Ok(all.len())
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
    for s in &r.stale_baseline {
        out.push_str(&format!(
            "stale baseline entry (fix landed — remove it): {s}\n"
        ));
    }
    if r.is_clean() {
        out.push_str(&format!(
            "lint: clean ({} lints over {} files, {} functions; {} baselined finding(s))\n",
            ALL_LINTS.len(),
            r.files,
            r.functions,
            r.baselined.len()
        ));
    } else {
        let errors = r
            .findings
            .iter()
            .filter(|f| f.severity() == LintSeverity::Error)
            .count();
        out.push_str(&format!(
            "lint: {} finding(s) ({} error(s), {} warning(s)), {} stale baseline entry(ies)\n",
            r.findings.len(),
            errors,
            r.findings.len() - errors,
            r.stale_baseline.len()
        ));
    }
    out
}

/// Machine-readable JSON report (hand-rolled; the workspace is
/// dependency-free by policy).
pub fn render_json(r: &LintReport) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"clean\":{},\"files\":{},\"functions\":{},\"baselined\":{},",
        r.is_clean(),
        r.files,
        r.functions,
        r.baselined.len()
    ));
    out.push_str("\"findings\":[");
    for (i, f) in r.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            f.id.code(),
            f.severity(),
            json_escape(&f.file),
            f.line,
            json_escape(&f.message)
        ));
    }
    out.push_str("],\"stale_baseline\":[");
    for (i, s) in r.stale_baseline.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\"", json_escape(s)));
    }
    out.push_str("]}");
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
        let level = match id.severity() {
            LintSeverity::Error => "error",
            LintSeverity::Warning => "warning",
        };
        out.push_str(&format!(
            "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}},\
             \"defaultConfiguration\":{{\"level\":\"{level}\"}}}}",
            id.code(),
            json_escape(id.summary())
        ));
    }
    out.push_str("]}},\"results\":[");
    for (i, f) in r.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let level = match f.severity() {
            LintSeverity::Error => "error",
            LintSeverity::Warning => "warning",
        };
        out.push_str(&format!(
            "{{\"ruleId\":\"{}\",\"level\":\"{level}\",\"message\":{{\"text\":\"{}\"}},\
             \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\
             \"region\":{{\"startLine\":{}}}}}}}]}}",
            f.id.code(),
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
        let good = "fn f() { std::thread::sleep(plan.recv_delay); }\n";
        assert!(lint_one("x.rs", good).is_empty());
    }

    #[test]
    fn post_with_no_completion_path_at_all_is_sl003() {
        let bad = "fn f(env: &mut E) { env.post_a2a(0); }\n";
        let f = lint_one("x.rs", bad);
        assert!(codes(&f).contains(&"SL003"), "got {f:?}");
        // Any completion ident in the file downgrades to per-path SL008
        // reasoning only.
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
    fn sl006_rank_guarded_collective_fires() {
        let bad = "fn f(c: &C) { if c.rank() == 0 { c.barrier(); } }\n";
        let f = lint_one("crates/core/src/pipeline2.rs", bad);
        assert_eq!(codes(&f), vec!["SL006"]);
        // Same collectives on both arms: no divergence.
        let balanced = "fn f(c: &C) { if c.rank() == 0 { c.barrier(); } else { c.barrier(); } }\n";
        assert!(lint_one("crates/core/src/pipeline2.rs", balanced).is_empty());
        // Rank-guarded local work is fine.
        let local = "fn f(c: &C) { let r = c.rank(); if r == 0 { log(r); } c.barrier(); }\n";
        assert!(lint_one("crates/core/src/pipeline2.rs", local).is_empty());
    }

    #[test]
    fn sl006_taint_propagates_through_bindings() {
        let bad = "fn f(c: &C) { let me = c.rank(); let lead = me == 0; \
                   if lead { c.agree(1); } }\n";
        assert_eq!(codes(&lint_one("crates/core/src/a.rs", bad)), vec!["SL006"]);
    }

    #[test]
    fn sl006_sees_collectives_through_calls() {
        let bad = "fn helper(c: &C) { c.barrier(); }\n\
                   fn f(c: &C) { if c.rank() == 0 { helper(c); } }\n";
        assert_eq!(codes(&lint_one("crates/core/src/a.rs", bad)), vec!["SL006"]);
    }

    #[test]
    fn sl006_exempts_the_runtime_itself() {
        // mpisim's own collective implementations are legitimately
        // rank-asymmetric inside.
        let src = "fn bcast(c: &C) { if c.rank() == root { c.barrier(); } }\n";
        assert!(lint_one("crates/mpisim/src/coll.rs", src).is_empty());
        assert!(lint_one("crates/simnet/src/net.rs", src).is_empty());
    }

    #[test]
    fn sl007_init_without_free_fires_and_free_silences() {
        let bad = "fn f(c: &C) { let plan = c.alltoallv_init(s); plan.start(); plan.wait(); }\n";
        let f = lint_one("crates/core/src/a.rs", bad);
        assert_eq!(codes(&f), vec!["SL007"]);
        assert_eq!(f[0].line, 1);
        let good = "fn f(c: &C) { let plan = c.alltoallv_init(s); plan.start(); \
                    plan.wait(); plan.free(); }\n";
        assert!(lint_one("crates/core/src/a.rs", good).is_empty());
    }

    #[test]
    fn sl007_assignment_into_slot_is_untracked() {
        // `plans[t] = Some(comm.alltoallv_init(…))` stores the plan in a
        // structure that outlives the statement — the session's teardown
        // owns the free.
        let src = "fn f(c: &C, plans: &mut Vec<Option<P>>, t: usize) { \
                   plans[t] = Some(c.alltoallv_init(s)); }\n";
        assert!(lint_one("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn sl008_early_question_mark_leaks_posted_request() {
        let bad = "fn f(env: &mut E) -> R<()> { let req = env.post_a2a(0); \
                   env.step(0)?; env.wait(0, req)?; Ok(()) }\n";
        let f = lint_one("crates/core/src/a.rs", bad);
        assert_eq!(codes(&f), vec!["SL008"]);
        let good = "fn f(env: &mut E) -> R<()> { let req = env.post_a2a(0); \
                    env.wait(0, req)?; env.step(0)?; Ok(()) }\n";
        assert!(lint_one("crates/core/src/a.rs", good).is_empty());
    }

    #[test]
    fn sl008_fall_through_leak_and_silent_drop() {
        let bad = "fn f(env: &mut E) { let r = env.post_a2a(0); drop(r); env.cancel_noop(); }\n";
        let f = lint_one("crates/core/src/a.rs", bad);
        assert_eq!(codes(&f), vec!["SL008"]);
    }

    #[test]
    fn sl008_escape_into_window_is_someone_elses_obligation() {
        let src = "fn f(env: &mut E, win: &mut Vec<(usize, Req)>) -> R<()> { \
                   let req = env.post_a2a(0); win.push((0, req)); env.step(0)?; Ok(()) }\n\
                   fn drain(env: &mut E, win: &mut Vec<(usize, Req)>) { \
                   while let Some((t, r)) = win.pop() { env.wait(t, r); } }\n";
        assert!(lint_one("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn sl008_tail_return_escapes_to_caller() {
        let src = "fn post(env: &mut E) -> Req { env.post_a2a(0) }\n\
                   fn f(env: &mut E) { let r = post(env); env.wait(0, r); }\n";
        assert!(lint_one("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn sl008_cancel_on_error_arm_discharges() {
        let src = "fn f(env: &mut E) -> R<()> { let req = env.post_a2a(0); \
                   match env.step(0) { Ok(v) => v, Err(e) => { env.cancel(0, req); \
                   return Err(e); } } env.wait(0, req)?; Ok(()) }\n";
        assert!(lint_one("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn sl008_discharge_through_callee_wait() {
        // `wait_recover` transitively waits, so calling it completes the
        // request — the call graph must see through the wrapper.
        let src = "fn wait_recover(env: &mut E, r: Req) -> R<()> { env.wait(0, r) }\n\
                   fn f(env: &mut E) -> R<()> { let req = env.post_a2a(0); \
                   wait_recover(env, req)?; Ok(()) }\n";
        assert!(lint_one("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn sl009_blocking_collective_over_inflight_request() {
        let bad = "fn f(c: &C, env: &mut E) { let r = env.post_a2a(0); c.barrier(); \
                   env.wait(0, r); }\n";
        let f = lint_one("crates/core/src/a.rs", bad);
        assert_eq!(codes(&f), vec!["SL009"]);
        let good = "fn f(c: &C, env: &mut E) { let r = env.post_a2a(0); env.wait(0, r); \
                    c.barrier(); }\n";
        assert!(lint_one("crates/core/src/a.rs", good).is_empty());
    }

    #[test]
    fn sl009_needs_must_in_flight() {
        // Posted on only one path: not *provably* in flight at the barrier.
        let src = "fn f(c: &C, env: &mut E, go: bool) { \
                   if go { env.post_a2a(0); } c.barrier(); c.wait_all(); }\n";
        let f = lint_one("crates/core/src/a.rs", src);
        assert!(!codes(&f).contains(&"SL009"), "got {f:?}");
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
    fn fingerprint_survives_line_churn_not_edits() {
        let a = fingerprint("SL001", "a.rs", "  let x = g().unwrap();  ");
        let b = fingerprint("SL001", "a.rs", "let x = g().unwrap();");
        assert_eq!(a, b, "trimmed text makes the fingerprint line-shift proof");
        let c = fingerprint("SL001", "a.rs", "let y = g().unwrap();");
        assert_ne!(a, c);
        let d = fingerprint("SL002", "a.rs", "let x = g().unwrap();");
        assert_ne!(a, d);
    }

    #[test]
    fn renderers_are_well_formed() {
        let report = LintReport {
            findings: vec![SrcFinding {
                file: "crates/a/src/b.rs".to_owned(),
                line: 7,
                id: SrcLintId::PostNotDominated,
                message: "leak \"quoted\"".to_owned(),
            }],
            baselined: Vec::new(),
            stale_baseline: vec!["SL001 old.rs 0123456789abcdef".to_owned()],
            files: 1,
            functions: 2,
        };
        let text = render_text(&report);
        assert!(text.contains("[SL008/error]"));
        assert!(text.contains("stale baseline entry"));
        let json = render_json(&report);
        assert!(json.contains("\"code\":\"SL008\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"clean\":false"));
        let sarif = render_sarif(&report);
        assert!(sarif.contains("\"version\":\"2.1.0\""));
        assert!(sarif.contains("\"ruleId\":\"SL008\""));
        assert!(sarif.contains("\"startLine\":7"));
        // Every lint appears in the rules array.
        for id in ALL_LINTS {
            assert!(sarif.contains(&format!("\"id\":\"{}\"", id.code())));
        }
    }

    #[test]
    fn baseline_absorbs_and_reports_stale() {
        let dir =
            std::env::temp_dir().join(format!("mpicheck-baseline-test-{}", std::process::id()));
        let src_dir = dir.join("src");
        fs::create_dir_all(&src_dir).expect("create temp src dir");
        fs::write(src_dir.join("lib.rs"), "fn f() { g().unwrap(); }\n").expect("write temp source");
        // No baseline: one active finding.
        let r = run(&dir);
        assert_eq!(codes(&r.findings), vec!["SL001"]);
        assert!(r.baselined.is_empty());
        // Baseline it: absorbed.
        let n = update_baseline(&dir).expect("write baseline");
        assert_eq!(n, 1);
        let r = run(&dir);
        assert!(r.findings.is_empty());
        assert_eq!(codes(&r.baselined), vec!["SL001"]);
        assert!(r.stale_baseline.is_empty());
        assert!(r.is_clean());
        // Fix the code: the entry goes stale and the run is dirty again.
        fs::write(src_dir.join("lib.rs"), "fn f() -> R<()> { g() }\n")
            .expect("rewrite temp source");
        let r = run(&dir);
        assert!(r.findings.is_empty());
        assert_eq!(r.stale_baseline.len(), 1);
        assert!(!r.is_clean());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workspace_is_currently_clean() {
        // The repo's own source must pass its own lints — errors *and*
        // warnings, with zero stale baseline entries. This is the
        // regression gate that keeps future findings out of HEAD.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/mpicheck has a workspace root two levels up");
        let report = run(root);
        assert!(report.files > 10, "walker found too few files");
        assert!(report.functions > 100, "summariser found too few functions");
        assert!(
            report.is_clean(),
            "source lints found:\n{}",
            render_text(&report)
        );
    }
}
