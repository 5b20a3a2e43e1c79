//! The rule catalogue (policy v4: L001–L006, L008–L012) and the per-file
//! rule driver.
//!
//! Rules operate on a [`ScannedFile`](crate::scan::ScannedFile) (masked
//! text, pragmas, test regions) plus a [`FileModel`](crate::lex::FileModel)
//! (token stream and brace-tree scopes) and a [`FileClass`] describing where
//! the file sits in the workspace. The line-oriented rules (L002/L003/L005)
//! match the masked source; the structural rules (L001, L004, L008–L011)
//! walk real tokens and ask the scope tree what encloses them. Every rule
//! checks for a violation *first* and only then consults
//! [`ScannedFile::allow`], so pragma usage is tracked exactly and L012 can
//! flag grants that suppress nothing.

use crate::lex::{FileModel, TokenKind};
use crate::scan::ScannedFile;
use crate::{Diagnostic, FileClass};

/// Diagnostic severity, mapped straight onto SARIF `level`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Violates a correctness-bearing invariant (determinism, unsafe
    /// hygiene, bitwise parity).
    Error,
    /// Violates a maintainability/performance policy.
    Warning,
    /// Housekeeping: the finding asks for a cleanup, not a behavior fix.
    Note,
}

impl Severity {
    /// The SARIF `level` string for this severity.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

/// Static description of one rule, surfaced by `--list-rules`, the SARIF
/// `tool.driver.rules` array, and the docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Identifier, e.g. `L001`.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Default severity.
    pub severity: Severity,
}

/// The rule catalogue. `L000` (malformed pragma) is a meta-diagnostic, not a
/// policy rule, so it is not listed here. `L007` was the masked-text
/// predecessor of L011 and is retired — granting it is an unknown-rule
/// error, which is deliberate: stale grants must be re-justified under the
/// token-aware rule, not silently carried over.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "L001",
        summary: "no unwrap()/expect()/panic!/unreachable!/todo!/unimplemented! in library crates \
                  without a justified pragma",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "L002",
        summary: "telemetry only via hotgauge-telemetry facade macros: no raw \
                  #[cfg(feature = \"telemetry\")] blocks or Instant::now() outside \
                  crates/telemetry and the bench crate",
        severity: Severity::Warning,
    },
    RuleInfo {
        id: "L003",
        summary: "no f32 in crates/thermal and crates/core numeric kernels (f64-only parity)",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "L004",
        summary: "concurrency policy: no std::thread::spawn in library crates, no Arc<Sender>, \
                  atomics must name an Ordering explicitly (two for \
                  fetch_update/compare_exchange)",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "L005",
        summary: "raw temperature/length literals (80.0, 25.0, 100e-6, ...) outside preset \
                  modules must use named constants or units newtypes",
        severity: Severity::Warning,
    },
    RuleInfo {
        id: "L006",
        summary: "span!/counter! labels must be lowercase dotted namespaces \
                  (`thermal.cg_iterations`), and each label outside test code must be \
                  emitted by exactly one crate",
        severity: Severity::Warning,
    },
    RuleInfo {
        id: "L008",
        summary: "unsafe hygiene: every unsafe block/impl needs a preceding // SAFETY: comment, \
                  and every lib crate forbids unsafe_code (a deny downgrade needs a justified \
                  pragma)",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "L009",
        summary: "determinism: no HashMap/HashSet iteration (.iter()/.keys()/for ... in) in \
                  numeric kernel crates where order can feed results; use BTreeMap or an \
                  explicitly sorted sequence",
        severity: Severity::Error,
    },
    RuleInfo {
        id: "L010",
        summary: "scoped concurrency: Ordering::SeqCst only under pragma, counter atomics use \
                  Relaxed, and no Mutex lock acquisition inside loop bodies of kernel modules",
        severity: Severity::Warning,
    },
    RuleInfo {
        id: "L011",
        summary: "no per-iteration heap allocation (Vec::new()/vec![]/.collect()) inside \
                  for/while/loop/closure bodies in thermal kernel modules (token-aware \
                  successor of L007)",
        severity: Severity::Warning,
    },
    RuleInfo {
        id: "L012",
        summary: "pragma hygiene: an allow(RULE, ...) grant that suppresses zero diagnostics is \
                  itself a finding; remove stale grants",
        severity: Severity::Note,
    },
];

/// Severity of a rule id; the L000 meta-diagnostic is always an error.
pub fn severity_of(rule: &str) -> Severity {
    RULES
        .iter()
        .find(|r| r.id == rule)
        .map(|r| r.severity)
        .unwrap_or(Severity::Error)
}

/// L005 quarantined literal spellings. Matched with numeric-token boundaries
/// so `125.0`, `80.05`, `25e-3`, and `1e-30` do not fire.
const L005_LITERALS: &[&str] = &["80.0", "25.0", "115.0", "60.0", "100e-6", "1e-3"];

/// Atomic methods whose call must name an `Ordering` in its argument list.
/// `fetch_update` and the `compare_exchange` family take *two* orderings
/// (success and failure), and L004 requires both to be spelled.
const L004_ATOMIC_METHODS: &[(&str, usize)] = &[
    ("load", 1),
    ("store", 1),
    ("fetch_add", 1),
    ("fetch_sub", 1),
    ("fetch_and", 1),
    ("fetch_or", 1),
    ("fetch_xor", 1),
    ("fetch_update", 2),
    ("compare_exchange", 2),
    ("compare_exchange_weak", 2),
];

/// Hash-container iteration methods L009 refuses in kernel crates. `get`,
/// `insert`, `entry`, `contains_key` are keyed and deterministic, so they
/// are deliberately absent.
const L009_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
];

/// Receiver-name suffixes L010 treats as telemetry counters: monotone tallies
/// whose only consumer is a snapshot, so anything stronger than `Relaxed` is
/// paying fence costs for ordering nobody observes.
const L010_COUNTER_SUFFIXES: &[&str] = &[
    "count",
    "counts",
    "counter",
    "counters",
    "total",
    "hits",
    "dropped",
    "completed",
];

/// Run every applicable rule over one scanned+lexed file. The L012
/// unused-grant pass runs separately (after the cross-file label pass) via
/// [`check_unused_pragmas`].
pub fn check_file(
    path: &str,
    class: &FileClass,
    scanned: &ScannedFile,
    model: &FileModel,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Malformed pragmas are always reported: a typo'd grant silently
    // reverting to "violation" would be confusing, and a typo'd rule name
    // silently granting nothing is worse.
    for err in &scanned.pragma_errors {
        out.push(Diagnostic::new(
            path,
            err.line + 1,
            "L000",
            err.message.clone(),
        ));
    }
    for pragma in &scanned.pragmas {
        if pragma.rule != "L000" && !RULES.iter().any(|r| r.id == pragma.rule) {
            out.push(Diagnostic::new(
                path,
                pragma.line + 1,
                "L000",
                format!("pragma grants unknown rule `{}`", pragma.rule),
            ));
        }
    }

    if class.lib_crate {
        check_l001(path, class, scanned, model, &mut out);
        check_l004_spawn_arc(path, class, scanned, &mut out);
        check_l004_orderings(path, scanned, model, &mut out);
    }
    if !class.telemetry_crate && !class.bench_crate {
        check_l002(path, scanned, &mut out);
    }
    if class.numeric {
        check_l003(path, class, scanned, &mut out);
        check_l005(path, class, scanned, &mut out);
        check_l009(path, class, scanned, model, &mut out);
    }
    check_l008(path, class, scanned, model, &mut out);
    check_l010(path, class, scanned, model, &mut out);
    if class.thermal_kernel && !class.test_context {
        check_l011(path, scanned, model, &mut out);
    }

    // L006 label format. The companion cross-crate duplicate check needs
    // every file's labels at once, so it runs in the workspace driver
    // (`run_lint`) via [`check_label_duplicates`].
    for u in extract_labels(scanned) {
        if !valid_label(&u.label) && !scanned.allow(u.line, "L006") {
            out.push(Diagnostic::new(
                path,
                u.line + 1,
                "L006",
                format!(
                    "{}! label `{}` must be a lowercase dotted namespace like \
                     `thermal.cg_iterations` ([a-z0-9_] segments joined by `.`)",
                    u.kind, u.label
                ),
            ));
        }
    }

    out
}

/// L012: every grant of a known rule must have suppressed at least one
/// diagnostic by the time all rules (including the cross-file label pass)
/// have run. Unknown-rule grants are already L000 errors and are skipped.
pub fn check_unused_pragmas(path: &str, scanned: &ScannedFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for pragma in &scanned.pragmas {
        if !RULES.iter().any(|r| r.id == pragma.rule) {
            continue;
        }
        if !pragma.used.get() && !scanned.allow(pragma.line, "L012") {
            out.push(Diagnostic::new(
                path,
                pragma.line + 1,
                "L012",
                format!(
                    "allow({}, ...) suppresses no diagnostics: remove the stale grant (or fix \
                     the code it was meant to cover)",
                    pragma.rule
                ),
            ));
        }
    }
    out
}

/// One `span!`/`counter!` call site found in a file.
#[derive(Debug, Clone)]
pub struct LabelUse {
    /// Zero-based line of the macro invocation.
    pub line: usize,
    /// `"span"` or `"counter"`.
    pub kind: &'static str,
    /// The label literal's contents.
    pub label: String,
    /// Whether the call sits inside `#[cfg(test)]` code.
    pub in_test: bool,
    /// Whether an `allow(L006, ...)` pragma covers the line.
    pub allowed: bool,
}

/// Extracts every `span!("...")` / `counter!("...", ...)` label from a
/// scanned file. Invocations are located in the masked text (so prose and
/// string literals never match); the label itself lives in a string literal,
/// so it is read back out of the raw text at the same char offset (masking
/// preserves geometry). Invocations whose first argument is not a string
/// literal on the same or following line are skipped — the facade macros
/// only accept literals, so such code would not compile anyway.
pub fn extract_labels(scanned: &ScannedFile) -> Vec<LabelUse> {
    let masked = scanned.masked_text();
    let raw: Vec<char> = scanned.raw.join("\n").chars().collect();
    let mut out = Vec::new();
    for (pat, kind) in [("span!(", "span"), ("counter!(", "counter")] {
        let mut from = 0usize;
        while let Some(rel) = masked[from..].find(pat) {
            let at = from + rel;
            from = at + pat.len();
            if !left_boundary(&masked, at) {
                continue;
            }
            let line = masked[..at].matches('\n').count();
            // The label literal starts at the first quote after the open
            // paren; a rustfmt-wrapped call puts it on the next line, so
            // search a short raw-text window rather than just this line.
            // Masking is char-for-char (a multi-byte prose char becomes one
            // space), so the masked *char* count — not the byte offset —
            // locates the same position in the raw text.
            let search_start = masked[..at + pat.len()].chars().count();
            let window: String = raw
                .iter()
                .skip(search_start.min(raw.len()))
                .take(160)
                .collect();
            let Some(open_q) = window.find('"') else {
                continue;
            };
            let rest = &window[open_q + 1..];
            let Some(close_q) = rest.find('"') else {
                continue;
            };
            out.push(LabelUse {
                line,
                kind,
                label: rest[..close_q].to_string(),
                in_test: scanned.in_test.get(line).copied().unwrap_or(false),
                allowed: scanned.is_allowed(line, "L006"),
            });
        }
    }
    out.sort_by_key(|u| u.line);
    out
}

/// L006 label shape: two or more `.`-joined segments, each starting with a
/// lowercase ASCII letter and continuing with `[a-z0-9_]`.
pub fn valid_label(label: &str) -> bool {
    let mut segments = 0usize;
    for part in label.split('.') {
        segments += 1;
        let mut chars = part.chars();
        match chars.next() {
            Some(c) if c.is_ascii_lowercase() => {}
            _ => return false,
        }
        if !chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_') {
            return false;
        }
    }
    segments >= 2
}

/// The owning crate of a workspace-relative path: `crates/foo/... -> foo`,
/// anything else (root `src/`, `tests/`, `examples/`) -> `suite`.
fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("suite")
}

/// L006 cross-crate duplicate check over the whole workspace's label uses
/// (`(workspace-relative path, labels found there)` pairs, as produced by
/// [`extract_labels`]). A label emitted from production code in more than
/// one crate is flagged at every such call site: labels are namespaced per
/// owning crate, so two crates sharing one would merge unrelated statistics
/// in snapshots and manifests. Test-context and pragma-granted uses are
/// ignored.
pub fn check_label_duplicates(files: &[(String, Vec<LabelUse>)]) -> Vec<Diagnostic> {
    // label -> list of (file index, use index); small workspace, linear scan.
    let mut by_label: Vec<(&str, Vec<(usize, usize)>)> = Vec::new();
    for (fx, (_, uses)) in files.iter().enumerate() {
        for (ux, u) in uses.iter().enumerate() {
            if u.in_test || u.allowed {
                continue;
            }
            match by_label.iter_mut().find(|(l, _)| *l == u.label) {
                Some((_, sites)) => sites.push((fx, ux)),
                None => by_label.push((&u.label, vec![(fx, ux)])),
            }
        }
    }
    let mut out = Vec::new();
    for (label, sites) in &by_label {
        let mut crates: Vec<&str> = sites
            .iter()
            .map(|&(fx, _)| crate_of(&files[fx].0))
            .collect();
        crates.sort_unstable();
        crates.dedup();
        if crates.len() < 2 {
            continue;
        }
        for &(fx, ux) in sites {
            let (path, uses) = &files[fx];
            let u = &uses[ux];
            out.push(Diagnostic::new(
                path,
                u.line + 1,
                "L006",
                format!(
                    "{}! label `{label}` is emitted by multiple crates ({}): telemetry \
                     labels are owned by exactly one crate",
                    u.kind,
                    crates.join(", ")
                ),
            ));
        }
    }
    out
}

/// Labels that appear in production code of two or more crates when
/// pragma-granted uses are *included*. The workspace driver uses this to
/// mark `allow(L006)` grants on genuine duplicates as used — a grant that
/// hides a real cross-crate collision is doing work; one on a unique label
/// is stale and should fall to L012.
pub fn duplicate_labels_including_allowed(files: &[(String, Vec<LabelUse>)]) -> Vec<String> {
    let mut by_label: Vec<(&str, Vec<&str>)> = Vec::new();
    for (path, uses) in files {
        for u in uses {
            if u.in_test {
                continue;
            }
            let krate = crate_of(path);
            match by_label.iter_mut().find(|(l, _)| *l == u.label) {
                Some((_, crates)) => {
                    if !crates.contains(&krate) {
                        crates.push(krate);
                    }
                }
                None => by_label.push((&u.label, vec![krate])),
            }
        }
    }
    by_label
        .iter()
        .filter(|(_, crates)| crates.len() >= 2)
        .map(|(l, _)| l.to_string())
        .collect()
}

/// True when `ix` (a token index) sits in `#[cfg(test)]`-gated or
/// test-context code.
fn tok_in_test(class: &FileClass, scanned: &ScannedFile, line: usize) -> bool {
    class.test_context || scanned.in_test.get(line).copied().unwrap_or(false)
}

/// L001, token-aware: `.unwrap(`/`.expect(` method calls (the leading-dot
/// token pair rules out `unwrap_or_else` and `expect_err` by construction)
/// and the panicking macro family.
fn check_l001(
    path: &str,
    class: &FileClass,
    scanned: &ScannedFile,
    model: &FileModel,
    out: &mut Vec<Diagnostic>,
) {
    const MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    for (i, tok) in model.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let label = match tok.text.as_str() {
            "unwrap" | "expect"
                if model
                    .prev_code(i)
                    .is_some_and(|p| model.tokens[p].text == ".")
                    && model.matches_seq(i + 1, &["("]) =>
            {
                format!("{}()", tok.text)
            }
            m if MACROS.contains(&m) && model.matches_seq(i + 1, &["!", "("]) => {
                format!("{m}!")
            }
            _ => continue,
        };
        if tok_in_test(class, scanned, tok.line) {
            continue;
        }
        if !scanned.allow(tok.line, "L001") {
            out.push(Diagnostic::new(
                path,
                tok.line + 1,
                "L001",
                format!(
                    "{label} in a library crate: return a typed error or add \
                     `// hotgauge-lint: allow(L001, \"<invariant>\")`"
                ),
            ));
        }
    }
}

fn check_l002(path: &str, scanned: &ScannedFile, out: &mut Vec<Diagnostic>) {
    for (ix, masked) in scanned.masked.iter().enumerate() {
        let raw = &scanned.raw[ix];
        if let Some(at) = masked.find("Instant::now") {
            if left_boundary(masked, at) && !scanned.allow(ix, "L002") {
                out.push(Diagnostic::new(
                    path,
                    ix + 1,
                    "L002",
                    "Instant::now() outside crates/telemetry: use the hotgauge-telemetry span!/\
                     counter! facade"
                        .to_string(),
                ));
            }
        }
        // The feature name itself is a string literal, so it lives in the raw
        // line; the `cfg` must be code, so it must survive in the masked line.
        if raw.contains("feature = \"telemetry\"")
            && masked.contains("cfg")
            && !scanned.allow(ix, "L002")
        {
            out.push(Diagnostic::new(
                path,
                ix + 1,
                "L002",
                "raw #[cfg(feature = \"telemetry\")] outside crates/telemetry: use the \
                 if_telemetry!/span!/counter! facade macros"
                    .to_string(),
            ));
        }
    }
}

fn check_l003(path: &str, class: &FileClass, scanned: &ScannedFile, out: &mut Vec<Diagnostic>) {
    for (ix, masked) in scanned.masked.iter().enumerate() {
        if tok_in_test(class, scanned, ix) {
            continue;
        }
        let mut from = 0usize;
        while let Some(rel) = masked[from..].find("f32") {
            let at = from + rel;
            from = at + 3;
            if !left_boundary(masked, at) || !right_boundary(masked, at + 3) {
                continue;
            }
            if !scanned.allow(ix, "L003") {
                out.push(Diagnostic::new(
                    path,
                    ix + 1,
                    "L003",
                    "f32 in a numeric kernel crate: thermal/analysis kernels are f64-only to \
                     keep the fused/naive parity proptests bitwise"
                        .to_string(),
                ));
            }
        }
    }
}

fn check_l004_spawn_arc(
    path: &str,
    _class: &FileClass,
    scanned: &ScannedFile,
    out: &mut Vec<Diagnostic>,
) {
    for (ix, masked) in scanned.masked.iter().enumerate() {
        if masked.contains("thread::spawn") && !scanned.allow(ix, "L004") {
            out.push(Diagnostic::new(
                path,
                ix + 1,
                "L004",
                "std::thread::spawn in a library crate: use std::thread::scope or the pipeline \
                 channel so joins are structural"
                    .to_string(),
            ));
        }
        let squeezed: String = masked.chars().filter(|c| !c.is_whitespace()).collect();
        if (squeezed.contains("Arc<Sender")
            || squeezed.contains("Arc<SyncSender")
            || squeezed.contains("Arc<mpsc::"))
            && !scanned.allow(ix, "L004")
        {
            out.push(Diagnostic::new(
                path,
                ix + 1,
                "L004",
                "channel endpoint behind Arc: senders must be moved/cloned into scopes, never \
                 shared through Arc"
                    .to_string(),
            ));
        }
    }
}

/// Atomic calls must name their `Ordering`s inside the argument list —
/// one for plain loads/stores/RMWs, *two* for `fetch_update` and the
/// `compare_exchange` family (success and failure orderings). Token-aware:
/// the argument span is the paren-balanced token range, so rustfmt-wrapped
/// calls match across lines.
fn check_l004_orderings(
    path: &str,
    scanned: &ScannedFile,
    model: &FileModel,
    out: &mut Vec<Diagnostic>,
) {
    for (i, tok) in model.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let Some(&(_, required)) = L004_ATOMIC_METHODS
            .iter()
            .find(|(m, _)| *m == tok.text.as_str())
        else {
            continue;
        };
        // Must be a method call: `.name(` with a real receiver.
        if model
            .prev_code(i)
            .is_none_or(|p| model.tokens[p].text != ".")
        {
            continue;
        }
        let Some(open) = model
            .next_code(i + 1)
            .filter(|&p| model.tokens[p].text == "(")
        else {
            continue;
        };
        let Some(args) = paren_token_span(model, open) else {
            continue;
        };
        let orderings = count_orderings(model, args.clone());
        if orderings >= required {
            continue;
        }
        // `.load()`/`.store(x)` also exist on non-atomics (Cell, Vec
        // element swaps). The fetch_*/compare_exchange* names only exist on
        // atomics; for the ambiguous two, require the receiver chain to
        // look atomic-ish before flagging.
        let ambiguous = matches!(tok.text.as_str(), "load" | "store");
        if ambiguous {
            let empty_args = model
                .tokens
                .get(args.start..args.end)
                .is_none_or(|ts| ts.iter().all(|t| t.kind.is_trivia()));
            if tok.text == "load" && empty_args {
                // `.load()` with no args is never an atomic load.
                continue;
            }
            let recv_start = i.saturating_sub(8);
            let atomicish = model.tokens[recv_start..i]
                .iter()
                .any(|t| t.text.to_ascii_lowercase().contains("atomic"));
            if !atomicish {
                continue;
            }
        }
        if !scanned.allow(tok.line, "L004") {
            out.push(Diagnostic::new(
                path,
                tok.line + 1,
                "L004",
                format!(
                    "atomic `{}(...)` names {orderings} Ordering:: argument(s); {required} \
                     required (success and failure orderings must both be explicit)",
                    tok.text
                ),
            ));
        }
    }
}

/// Count `Ordering::<Variant>` paths among the tokens of `range`.
fn count_orderings(model: &FileModel, range: std::ops::Range<usize>) -> usize {
    let mut n = 0usize;
    for i in range {
        if model.tokens[i].text == "Ordering" && model.matches_seq(i + 1, &["::"]) {
            n += 1;
        }
    }
    n
}

/// The token range strictly inside the paren pair opening at `open`
/// (exclusive of both parens), or `None` if unbalanced.
fn paren_token_span(model: &FileModel, open: usize) -> Option<std::ops::Range<usize>> {
    let mut depth = 0usize;
    for (i, tok) in model.tokens.iter().enumerate().skip(open) {
        match tok.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + 1..i);
                }
            }
            _ => {}
        }
    }
    None
}

fn check_l005(path: &str, class: &FileClass, scanned: &ScannedFile, out: &mut Vec<Diagnostic>) {
    if class.units_exempt {
        return;
    }
    for (ix, masked) in scanned.masked.iter().enumerate() {
        if tok_in_test(class, scanned, ix) {
            continue;
        }
        // `const` declarations are exactly where these literals belong.
        if masked.contains("const ") {
            continue;
        }
        for lit in L005_LITERALS {
            let mut from = 0usize;
            while let Some(rel) = masked[from..].find(lit) {
                let at = from + rel;
                from = at + lit.len();
                if !numeric_boundary(masked, at, at + lit.len()) {
                    continue;
                }
                if !scanned.allow(ix, "L005") {
                    out.push(Diagnostic::new(
                        path,
                        ix + 1,
                        "L005",
                        format!(
                            "raw temperature/length literal `{lit}`: use a named constant or \
                             the hotgauge_core::units newtypes (Celsius/Microns)"
                        ),
                    ));
                }
            }
        }
    }
}

/// L008 part 1: every `unsafe {` block and `unsafe impl` must be preceded
/// by a `// SAFETY:` comment (attribute lines and blank lines may sit
/// between). Part 2: a lib crate's `lib.rs` must carry
/// `#![forbid(unsafe_code)]`; a `deny(unsafe_code)` downgrade is accepted
/// only under a justified `allow(L008, ...)` pragma on the attribute line.
fn check_l008(
    path: &str,
    class: &FileClass,
    scanned: &ScannedFile,
    model: &FileModel,
    out: &mut Vec<Diagnostic>,
) {
    for (i, tok) in model.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident || tok.text != "unsafe" {
            continue;
        }
        let Some(next) = model.next_code(i + 1) else {
            continue;
        };
        let what = match model.tokens[next].text.as_str() {
            "{" => "unsafe block",
            "impl" => "unsafe impl",
            // `unsafe fn` declarations (trait-required) document safety on
            // the trait; the *bodies'* unsafe operations are what need
            // justification, and those sit inside an unsafe fn context.
            _ => continue,
        };
        if has_preceding_safety_comment(scanned, model, tok.line) {
            continue;
        }
        if !scanned.allow(tok.line, "L008") {
            out.push(Diagnostic::new(
                path,
                tok.line + 1,
                "L008",
                format!(
                    "{what} without a preceding `// SAFETY:` comment stating the invariant \
                     that makes it sound"
                ),
            ));
        }
    }

    if class.lib_crate_root {
        let has_forbid = find_unsafe_attr(model, "forbid");
        let deny_line = find_unsafe_attr_line(model, "deny");
        if has_forbid.is_none() {
            match deny_line {
                Some(line) => {
                    if !scanned.allow(line, "L008") {
                        out.push(Diagnostic::new(
                            path,
                            line + 1,
                            "L008",
                            "deny(unsafe_code) downgrade in a lib crate root: add \
                             `// hotgauge-lint: allow(L008, \"<which block and why>\")` \
                             naming the sanctioned unsafe site"
                                .to_string(),
                        ));
                    }
                }
                None => {
                    if !scanned.allow(0, "L008") {
                        out.push(Diagnostic::new(
                            path,
                            1,
                            "L008",
                            "lib crate root missing #![forbid(unsafe_code)] (or a justified \
                             deny(unsafe_code) downgrade)"
                                .to_string(),
                        ));
                    }
                }
            }
        }
    }
}

/// Find `level ( unsafe_code )` in the token stream (inside any attribute
/// form, including `cfg_attr`), returning the token index.
fn find_unsafe_attr(model: &FileModel, level: &str) -> Option<usize> {
    (0..model.tokens.len()).find(|&i| {
        model.tokens[i].kind == TokenKind::Ident
            && model.tokens[i].text == level
            && model.matches_seq(i + 1, &["(", "unsafe_code", ")"])
    })
}

fn find_unsafe_attr_line(model: &FileModel, level: &str) -> Option<usize> {
    find_unsafe_attr(model, level).map(|i| model.tokens[i].line)
}

/// Walk upward from the line above `line` through the contiguous run of
/// blank, comment, and attribute lines; true if any comment in that run
/// (or a comment ending on `line` itself, for multi-line block comments)
/// contains `SAFETY:`.
fn has_preceding_safety_comment(scanned: &ScannedFile, model: &FileModel, line: usize) -> bool {
    // Comment lines by start line, with their text.
    let safety_on_line = |l: usize| {
        model
            .tokens
            .iter()
            .any(|t| t.kind.is_trivia() && t.line == l && t.text.contains("SAFETY:"))
    };
    let comment_on_line = |l: usize| {
        model
            .tokens
            .iter()
            .any(|t| t.kind.is_trivia() && t.line == l)
    };
    let mut l = line;
    while l > 0 {
        l -= 1;
        if safety_on_line(l) {
            return true;
        }
        let masked = scanned.masked.get(l).map(|s| s.trim()).unwrap_or("");
        let is_attr = masked.starts_with('#');
        let is_blank_or_comment = masked.is_empty();
        if is_attr || is_blank_or_comment || comment_on_line(l) {
            continue;
        }
        return false;
    }
    false
}

/// L009: hash-container iteration in numeric kernel crates. Identifiers
/// bound or typed as `HashMap`/`HashSet` in this file are tracked; calling
/// an iteration-order method on one, or iterating one in a `for` header,
/// injects nondeterministic order into code whose outputs are pinned
/// bitwise. Keyed access (`get`/`insert`/`entry`) is fine.
fn check_l009(
    path: &str,
    class: &FileClass,
    scanned: &ScannedFile,
    model: &FileModel,
    out: &mut Vec<Diagnostic>,
) {
    let names = hash_bound_names(model);
    if names.is_empty() {
        return;
    }
    let flag = |line: usize, msg: String, out: &mut Vec<Diagnostic>| {
        if tok_in_test(class, scanned, line) {
            return;
        }
        if !scanned.allow(line, "L009") {
            out.push(Diagnostic::new(path, line + 1, "L009", msg));
        }
    };
    for (i, tok) in model.tokens.iter().enumerate() {
        // `name.iter()` / `name.keys()` / ...
        if tok.kind == TokenKind::Ident
            && L009_ITER_METHODS.contains(&tok.text.as_str())
            && model.matches_seq(i + 1, &["("])
        {
            if let Some(dot) = model.prev_code(i).filter(|&p| model.tokens[p].text == ".") {
                if let Some(recv) = model.prev_code(dot) {
                    let r = &model.tokens[recv];
                    if r.kind == TokenKind::Ident && names.contains(&r.text) {
                        flag(
                            tok.line,
                            format!(
                                "`.{}()` on hash container `{}` in a numeric kernel crate: \
                                 hash iteration order is nondeterministic; use \
                                 BTreeMap/BTreeSet or sort an extracted Vec first",
                                tok.text, r.text
                            ),
                            out,
                        );
                    }
                }
            }
        }
        // `for x in [&[mut]] name ... {`
        if tok.kind == TokenKind::Ident && tok.text == "in" {
            let in_for_header = model
                .prev_code(i)
                .is_some_and(|_| for_header_contains(model, i));
            if in_for_header {
                if let Some(next) = model.next_code(i + 1) {
                    let mut j = next;
                    while model.tokens[j].text == "&" || model.tokens[j].text == "mut" {
                        match model.next_code(j + 1) {
                            Some(n) => j = n,
                            None => break,
                        }
                    }
                    let t = &model.tokens[j];
                    if t.kind == TokenKind::Ident && names.contains(&t.text) {
                        flag(
                            t.line,
                            format!(
                                "`for ... in {}` iterates a hash container in a numeric \
                                 kernel crate: hash iteration order is nondeterministic; \
                                 use BTreeMap/BTreeSet or sort an extracted Vec first",
                                t.text
                            ),
                            out,
                        );
                    }
                }
            }
        }
    }
}

/// Is token `i` (an `in` ident) part of a `for` loop header? Walk backward
/// to the nearest `for`/`;`/`{`/`}` at the same nesting.
fn for_header_contains(model: &FileModel, i: usize) -> bool {
    let mut j = i;
    while let Some(p) = model.prev_code(j) {
        match model.tokens[p].text.as_str() {
            "for" => return true,
            ";" | "{" | "}" => return false,
            _ => j = p,
        }
    }
    false
}

/// Identifiers bound or typed as `HashMap`/`HashSet` anywhere in the file:
/// `let [mut] NAME = HashMap::new()`, `NAME: HashMap<...>` (bindings,
/// fields, statics). Local, name-based — deliberately so: the lint runs
/// with no type inference, and a false negative on an aliased map is caught
/// by the differential proptests, not silently wrong results.
fn hash_bound_names(model: &FileModel) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for (i, tok) in model.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident || (tok.text != "HashMap" && tok.text != "HashSet") {
            continue;
        }
        // Walk backward over type-path tokens to the binding site.
        let mut j = i;
        let mut via_assign = false;
        while let Some(p) = model.prev_code(j) {
            match model.tokens[p].text.as_str() {
                "::" | "<" | ">" | "," | "&" | "mut" | "'" => j = p,
                "=" => {
                    via_assign = true;
                    j = p;
                }
                ":" => {
                    // `NAME : [type path ...] HashMap`.
                    if let Some(n) = model.prev_code(p) {
                        let t = &model.tokens[n];
                        if t.kind == TokenKind::Ident && !is_keyword(&t.text) {
                            push_unique(&mut names, t.text.clone());
                        }
                    }
                    break;
                }
                text if !via_assign
                    && model.tokens[p].kind == TokenKind::Ident
                    && !is_keyword(text) =>
                {
                    // Path segments like `std`, `collections`, `parking_lot`.
                    j = p;
                }
                "let" | "static" if via_assign => break,
                text if via_assign && model.tokens[p].kind == TokenKind::Ident => {
                    // `let [mut] NAME = ... HashMap...`: only the ident
                    // directly after let/static/mut is the binding — other
                    // idents on the walk back (generic args of a type
                    // annotation, path segments) are not names.
                    let after_binder = model.prev_code(p).is_some_and(|b| {
                        matches!(model.tokens[b].text.as_str(), "let" | "static" | "mut")
                    });
                    if after_binder && text != "mut" && !is_keyword(text) {
                        push_unique(&mut names, text.to_string());
                        break;
                    }
                    j = p;
                }
                _ => break,
            }
        }
    }
    names
}

fn push_unique(names: &mut Vec<String>, name: String) {
    if !names.contains(&name) {
        names.push(name);
    }
}

fn is_keyword(text: &str) -> bool {
    matches!(
        text,
        "let"
            | "static"
            | "const"
            | "mut"
            | "pub"
            | "fn"
            | "impl"
            | "struct"
            | "enum"
            | "for"
            | "in"
            | "if"
            | "else"
            | "while"
            | "loop"
            | "match"
            | "return"
            | "use"
            | "mod"
            | "ref"
            | "move"
            | "where"
            | "type"
            | "trait"
            | "dyn"
    )
}

/// L010: scoped-concurrency hygiene. `Ordering::SeqCst` anywhere outside
/// tests needs a pragma (nothing in this workspace needs sequential
/// consistency; name the weaker ordering you mean). Counter-named atomics
/// (`*_count`, `dropped`, `completed`, ...) must use `Relaxed` — they are
/// telemetry tallies, not synchronization. And in kernel modules, no
/// `.lock()` acquisition inside a loop body: hoist the guard or restructure.
fn check_l010(
    path: &str,
    class: &FileClass,
    scanned: &ScannedFile,
    model: &FileModel,
    out: &mut Vec<Diagnostic>,
) {
    for (i, tok) in model.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let in_test = tok_in_test(class, scanned, tok.line);
        match tok.text.as_str() {
            "SeqCst"
                if model
                    .prev_code(i)
                    .is_some_and(|p| model.tokens[p].text == "::")
                    && !in_test
                    && !scanned.allow(tok.line, "L010") =>
            {
                out.push(Diagnostic::new(
                    path,
                    tok.line + 1,
                    "L010",
                    "Ordering::SeqCst: nothing here needs sequential consistency; name \
                     the weaker ordering you mean (or add a pragma explaining why SeqCst)"
                        .to_string(),
                ));
            }
            "fetch_add" | "fetch_sub" if !in_test => {
                let Some(dot) = model.prev_code(i).filter(|&p| model.tokens[p].text == ".") else {
                    continue;
                };
                let Some(recv) = model.prev_code(dot) else {
                    continue;
                };
                let recv = &model.tokens[recv];
                if recv.kind != TokenKind::Ident || !counterish(&recv.text) {
                    continue;
                }
                let Some(open) = model
                    .next_code(i + 1)
                    .filter(|&p| model.tokens[p].text == "(")
                else {
                    continue;
                };
                let Some(args) = paren_token_span(model, open) else {
                    continue;
                };
                let relaxed = args.clone().any(|k| model.tokens[k].text == "Relaxed");
                let names_ordering = count_orderings(model, args) > 0 || relaxed;
                if relaxed || !names_ordering {
                    // No Ordering at all is L004's finding, not ours.
                    continue;
                }
                if !scanned.allow(tok.line, "L010") {
                    out.push(Diagnostic::new(
                        path,
                        tok.line + 1,
                        "L010",
                        format!(
                            "counter atomic `{}` uses a non-Relaxed ordering: telemetry \
                             tallies synchronize nothing; use Ordering::Relaxed",
                            recv.text
                        ),
                    ));
                }
            }
            "lock"
                if class.kernel
                    && !in_test
                    && model
                        .prev_code(i)
                        .is_some_and(|p| model.tokens[p].text == ".")
                    && model.matches_seq(i + 1, &["(", ")"])
                    && model.in_loop(i)
                    && !scanned.allow(tok.line, "L010") =>
            {
                out.push(Diagnostic::new(
                    path,
                    tok.line + 1,
                    "L010",
                    "lock acquisition inside a loop body of a kernel module: hoist the \
                     guard outside the loop or restructure to message passing"
                        .to_string(),
                ));
            }
            _ => {}
        }
    }
}

fn counterish(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    L010_COUNTER_SUFFIXES.iter().any(|s| lower.ends_with(s))
}

/// L011: per-iteration heap allocation in thermal kernel modules,
/// token-aware. Fires on `Vec::new()`, `vec![...]`, and `.collect()` whose
/// enclosing scope chain contains a `for`/`while`/`loop` body or a braced
/// closure (per-row callbacks price like loop bodies). The old masked-text
/// L007 only saw `for` bodies and could mis-scope matches inside strings a
/// line-based tracker had already lost; the scope tree sees neither.
fn check_l011(path: &str, scanned: &ScannedFile, model: &FileModel, out: &mut Vec<Diagnostic>) {
    for (i, tok) in model.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let label = match tok.text.as_str() {
            "Vec" if model.matches_seq(i + 1, &["::", "new", "("]) => "Vec::new()",
            "vec" if model.matches_seq(i + 1, &["!", "["]) => "vec![...]",
            "collect"
                if model
                    .prev_code(i)
                    .is_some_and(|p| model.tokens[p].text == ".")
                    && model.matches_seq(i + 1, &["("]) =>
            {
                ".collect()"
            }
            _ => continue,
        };
        if !model.in_loop_or_closure(i) {
            continue;
        }
        if scanned.in_test.get(tok.line).copied().unwrap_or(false) {
            continue;
        }
        if !scanned.allow(tok.line, "L011") {
            out.push(Diagnostic::new(
                path,
                tok.line + 1,
                "L011",
                format!(
                    "{label} inside a loop or closure body of a thermal kernel module: \
                     allocate scratch once in the caller (or add \
                     `// hotgauge-lint: allow(L011, \"<why this is not per-solve>\")`)"
                ),
            ));
        }
    }
}

/// True if the char before `at` cannot extend an identifier/number leftward.
fn left_boundary(s: &str, at: usize) -> bool {
    s[..at]
        .chars()
        .next_back()
        .map(|c| !c.is_alphanumeric() && c != '_')
        .unwrap_or(true)
}

/// True if the char at `end` cannot extend an identifier/number rightward.
fn right_boundary(s: &str, end: usize) -> bool {
    s[end..]
        .chars()
        .next()
        .map(|c| !c.is_alphanumeric() && c != '_')
        .unwrap_or(true)
}

/// Numeric-token boundaries: neither side may continue the number (digits,
/// ident chars, `.`), so `125.0`, `80.05`, `25e-3`, `1e-30` don't match.
fn numeric_boundary(s: &str, start: usize, end: usize) -> bool {
    let left_ok = s[..start]
        .chars()
        .next_back()
        .map(|c| !c.is_alphanumeric() && c != '_' && c != '.')
        .unwrap_or(true);
    let right_ok = s[end..]
        .chars()
        .next()
        .map(|c| !c.is_alphanumeric() && c != '_' && c != '.')
        .unwrap_or(true);
    left_ok && right_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::ScopeKind;

    #[test]
    fn scope_kinds_loop_set() {
        assert!(ScopeKind::ForLoop.is_loop());
        assert!(ScopeKind::WhileLoop.is_loop());
        assert!(ScopeKind::Loop.is_loop());
        assert!(!ScopeKind::Closure.is_loop());
        assert!(!ScopeKind::Fn.is_loop());
    }

    #[test]
    fn severity_strings() {
        assert_eq!(severity_of("L001").as_str(), "error");
        assert_eq!(severity_of("L012").as_str(), "note");
        // Unknown ids (incl. the L000 meta-diagnostic) are errors.
        assert_eq!(severity_of("L000").as_str(), "error");
    }
}
