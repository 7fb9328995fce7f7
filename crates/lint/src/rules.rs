//! The rule engine: seven named, allowlist-able rules over lexed token
//! streams.  `docs/CONCURRENCY.md` documents each rule and the
//! historical bug behind it; the lock hierarchy lives there too, in a
//! ```` ```lock-hierarchy ```` fence this module parses.
//!
//! | rule | checks |
//! |---|---|
//! | `lock-order` | nested guard acquisitions against the declared hierarchy |
//! | `lock-across-blocking` | no blocking call while holding a guard |
//! | `reactor-blocking` | no parking call reachable from the reactor I/O loop or a completion path |
//! | `frame-tags` | ClientFrame/ServerFrame tag uniqueness + encode/decode/docs exhaustiveness |
//! | `stats-fields` | every StatsSnapshot field present at encode/decode/merge/display sites |
//! | `sleep-poll` | no `thread::sleep` inside a loop in the daemon library's non-test code |
//! | `reach` | every `pub` item of a library crate is named by some non-test code outside it |
//!
//! A finding is suppressed by `// lint-allow(<rule>): <reason>` on the
//! same line or the line above.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Lexed, Token, TokenKind};

/// The rules this linter knows.  `lint-allow` annotations naming
/// anything else are ignored outright (doc prose mentioning the syntax
/// must not become load-bearing annotations); a typo'd rule name simply
/// fails to suppress, which `--deny` surfaces via the finding itself.
pub const RULES: &[&str] = &[
    "lock-order",
    "lock-across-blocking",
    "reactor-blocking",
    "frame-tags",
    "stats-fields",
    "sleep-poll",
    "reach",
];

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub file: PathBuf,
    pub line: usize,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Where a StatsSnapshot field must appear.
#[derive(Debug, Clone)]
pub enum SiteKind {
    /// The body of `fn <name>`.
    FnBody(String),
    /// The body of `impl <trait> for <struct>`.
    ImplFor(String),
}

/// One required usage site for the stats-fields rule.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    pub file: PathBuf,
    pub kind: SiteKind,
    pub label: String,
}

/// Configuration for the frame-tags rule.
#[derive(Debug, Clone)]
pub struct FramesSpec {
    pub file: PathBuf,
    pub enums: Vec<String>,
    pub protocol_doc: PathBuf,
}

/// Configuration for the stats-fields rule.
#[derive(Debug, Clone)]
pub struct StatsSpec {
    pub struct_file: PathBuf,
    pub struct_name: String,
    pub sites: Vec<SiteSpec>,
}

/// Everything a lint run needs.  Paths are relative to `root`.
#[derive(Debug, Clone)]
pub struct LintConfig {
    pub root: PathBuf,
    /// Lock names, outermost first.  Empty disables lock-order ranking.
    pub hierarchy: Vec<String>,
    /// Functions treated as entry points of code that must never park — a
    /// reactor I/O thread's loop, and the completion paths it (or a
    /// backend stage) runs: a bare name means every function of that name,
    /// `path/to/file.rs::name` (relative to `root`) only that file's.
    pub reactor_entry_points: Vec<String>,
    /// Directories (relative to `root`) whose non-test code may not sleep
    /// inside a loop (`sleep-poll`); empty disables the rule.
    pub sleep_poll_roots: Vec<PathBuf>,
    pub frames: Option<FramesSpec>,
    pub stats: Option<StatsSpec>,
    /// Directory names skipped while walking (besides hidden dirs).
    pub skip_dirs: Vec<String>,
}

impl LintConfig {
    /// The workspace configuration: hierarchy from `docs/CONCURRENCY.md`,
    /// the real protocol and stats sites.
    pub fn for_workspace(root: &Path) -> std::io::Result<Self> {
        let doc = std::fs::read_to_string(root.join("docs/CONCURRENCY.md"))?;
        let hierarchy = parse_hierarchy(&doc);
        Ok(LintConfig {
            root: root.to_path_buf(),
            hierarchy,
            reactor_entry_points: reactor_entry_points("crates/pipeline/src"),
            // The daemon's library: a sleep-poll there is a served request's
            // latency, or a thread it holds.
            sleep_poll_roots: vec![PathBuf::from("crates/pipeline/src")],
            frames: Some(FramesSpec {
                file: PathBuf::from("crates/proto/src/frames.rs"),
                enums: vec!["ClientFrame".to_string(), "ServerFrame".to_string()],
                protocol_doc: PathBuf::from("docs/PROTOCOL.md"),
            }),
            stats: Some(StatsSpec {
                struct_file: PathBuf::from("crates/proto/src/types.rs"),
                struct_name: "StatsSnapshot".to_string(),
                sites: vec![
                    SiteSpec {
                        file: PathBuf::from("crates/proto/src/types.rs"),
                        kind: SiteKind::ImplFor("WireEncode".to_string()),
                        label: "wire encode (impl WireEncode for StatsSnapshot)".to_string(),
                    },
                    SiteSpec {
                        file: PathBuf::from("crates/proto/src/types.rs"),
                        kind: SiteKind::ImplFor("WireDecode".to_string()),
                        label: "wire decode (impl WireDecode for StatsSnapshot)".to_string(),
                    },
                    SiteSpec {
                        file: PathBuf::from("crates/pipeline/src/live.rs"),
                        kind: SiteKind::FnBody("snapshot".to_string()),
                        label: "pipeline snapshot (LiveCounters::snapshot)".to_string(),
                    },
                    SiteSpec {
                        file: PathBuf::from("crates/ypd/src/main.rs"),
                        kind: SiteKind::FnBody("spawn_stats_reporter".to_string()),
                        label: "operator display (spawn_stats_reporter)".to_string(),
                    },
                ],
            }),
            skip_dirs: vec![
                "target".to_string(),
                "fixtures".to_string(),
                ".git".to_string(),
            ],
        })
    }
}

/// The daemon's non-parking entry points, for a tree whose pipeline
/// sources sit under `pipeline_src`: the reactor I/O loop; the completion
/// paths of the federation and of the hosted backends, which run on I/O
/// threads and whichever thread steps a stage (`FederatedBackend::{allocate_with, release_with,
/// delegate_with}`, and the `api.rs` backends' `allocate_with` and
/// `release_with` — whose window returns permits and launches queued
/// admissions); and the peer-session read path, which routes a peer link's
/// replies and runs their completions on the I/O thread
/// (`corr::Conn::route`, reached from the session only through a method
/// call the walk cannot resolve).  The backend calls are reached from the
/// session only through the trait object, so each is an entry of its own.
pub fn reactor_entry_points(pipeline_src: &str) -> Vec<String> {
    let file = |name: &str| Path::new(pipeline_src).join(name).display().to_string();
    let mut entries = vec!["io_thread_main".to_string()];
    for function in ["allocate_with", "release_with", "delegate_with"] {
        entries.push(format!("{}::{function}", file("federation.rs")));
    }
    for function in ["allocate_with", "release_with"] {
        entries.push(format!("{}::{function}", file("api.rs")));
    }
    entries.push(format!("{}::route", file("corr.rs")));
    entries
}

/// Parses the ```` ```lock-hierarchy ```` fence: one lock name per line,
/// outermost first; `#` comments and blank lines ignored.
pub fn parse_hierarchy(doc: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut inside = false;
    for line in doc.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("```") {
            if inside {
                break;
            }
            inside = trimmed == "```lock-hierarchy";
            continue;
        }
        if !inside || trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let name = trimmed.split_whitespace().next().unwrap_or("");
        if !name.is_empty() {
            names.push(name.to_string());
        }
    }
    names
}

/// The outcome of a lint run.
#[derive(Debug)]
pub struct LintReport {
    /// Unsuppressed findings, sorted by file then line.
    pub findings: Vec<Finding>,
    /// Findings suppressed by `lint-allow` annotations.
    pub suppressed: usize,
    /// Annotations that suppressed nothing (kept visible so stale
    /// allows get cleaned up).
    pub unused_allows: Vec<(PathBuf, usize, String)>,
    pub files_scanned: usize,
}

/// Runs every rule over the workspace described by `config`.
pub fn lint_workspace(config: &LintConfig) -> std::io::Result<LintReport> {
    let lexed_files = lex_tree(&config.root, &config.skip_dirs)?;

    let mut findings = Vec::new();
    let ranks: HashMap<&str, usize> = config
        .hierarchy
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();

    for (rel, lexed) in &lexed_files {
        check_guards(rel, lexed, &ranks, &mut findings);
    }
    check_reactor(&lexed_files, &config.reactor_entry_points, &mut findings);
    check_sleep_poll(&lexed_files, &config.sleep_poll_roots, &mut findings);
    check_reach(&lexed_files, &mut findings);
    if let Some(spec) = &config.frames {
        check_frames(config, spec, &lexed_files, &mut findings)?;
    }
    if let Some(spec) = &config.stats {
        check_stats(spec, &lexed_files, &mut findings);
    }

    // Apply allowlist: an annotation licenses findings of its rule on
    // the annotation's own line or the next line, in the same file.
    let mut suppressed = 0;
    let mut used: HashSet<(PathBuf, usize)> = HashSet::new();
    let mut kept = Vec::new();
    for finding in findings {
        let allow = lexed_files
            .iter()
            .find(|(rel, _)| *rel == finding.file)
            .and_then(|(_, lexed)| {
                lexed.allows.iter().find(|a| {
                    RULES.contains(&a.rule.as_str())
                        && a.rule == finding.rule
                        && (a.line == finding.line || a.line + 1 == finding.line)
                })
            });
        match allow {
            Some(a) => {
                suppressed += 1;
                used.insert((finding.file.clone(), a.line));
            }
            None => kept.push(finding),
        }
    }
    let mut unused_allows = Vec::new();
    for (rel, lexed) in &lexed_files {
        for a in &lexed.allows {
            if RULES.contains(&a.rule.as_str()) && !used.contains(&(rel.clone(), a.line)) {
                unused_allows.push((rel.clone(), a.line, a.rule.clone()));
            }
        }
    }
    kept.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));

    Ok(LintReport {
        findings: kept,
        suppressed,
        unused_allows,
        files_scanned: lexed_files.len(),
    })
}

/// Lexes every `.rs` file under `root` (paths relative to it, sorted).
fn lex_tree(root: &Path, skip_dirs: &[String]) -> std::io::Result<Vec<(PathBuf, Lexed)>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, skip_dirs, &mut files)?;
    files.sort();
    let mut lexed_files = Vec::new();
    for rel in files {
        let source = std::fs::read_to_string(root.join(&rel))?;
        lexed_files.push((rel, lex(&source)));
    }
    Ok(lexed_files)
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    skip: &[String],
    out: &mut Vec<PathBuf>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            if name.starts_with('.') || skip.contains(&name) {
                continue;
            }
            collect_rs_files(root, &path, skip, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Rules 1+2: lock-order and lock-across-blocking (one guard-tracking pass)
// ---------------------------------------------------------------------------

/// Methods that block while the caller may hold a guard.  `recv` and
/// `join` only in their zero-argument form (disambiguates from
/// `io::Read::read`-style and `slice::join` calls).
const BLOCKING_METHODS_ANY_ARGS: &[&str] = &["send", "recv_timeout"];
const BLOCKING_METHODS_ZERO_ARGS: &[&str] = &["recv", "join"];
/// Free functions that block (frame I/O over sockets).
const BLOCKING_FREE_FNS: &[&str] = &["write_frame", "read_frame"];
/// Condvar waits: blocking, but exempt when their first argument is a
/// tracked guard binding — the wait *releases* that guard.
const CONDVAR_WAITS: &[&str] = &["wait", "wait_timeout"];

#[derive(Debug)]
struct Guard {
    /// Receiver name the guard was taken from (`pending` in
    /// `self.pending.lock()`), used for hierarchy ranking.
    name: String,
    rank: Option<usize>,
    /// Let-binding, when the guard is nameable (and `drop`-able).
    binding: Option<String>,
    /// Guard of a temporary: expires at the statement's `;`.
    transient: bool,
    depth: usize,
    line: usize,
}

fn is_acquisition(tokens: &[Token], i: usize) -> Option<&'static str> {
    if tokens[i].text != "." {
        return None;
    }
    let method = match tokens.get(i + 1) {
        Some(t) if t.kind == TokenKind::Ident => t.text.as_str(),
        _ => return None,
    };
    let method = match method {
        "lock" => "lock",
        "read" => "read",
        "write" => "write",
        _ => return None,
    };
    if tokens.get(i + 2).map(|t| t.text.as_str()) == Some("(")
        && tokens.get(i + 3).map(|t| t.text.as_str()) == Some(")")
    {
        Some(method)
    } else {
        None
    }
}

fn check_guards(
    file: &Path,
    lexed: &Lexed,
    ranks: &HashMap<&str, usize>,
    findings: &mut Vec<Finding>,
) {
    let tokens = &lexed.tokens;
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: usize = 0;
    // For each open paren: the identifier called, if any.
    let mut paren_stack: Vec<Option<String>> = Vec::new();
    // `let <ident> =` binding currently in flight (cleared at `;`).
    let mut pending_let: Option<String> = None;
    // Brace depth of an in-flight plain `if`/`while` condition: such a
    // condition is a terminating scope in Rust, so guards of temporaries
    // born in it drop at the body's `{` (unlike `if let`/`match`
    // scrutinees, whose temporaries live through the whole expression).
    let mut plain_cond_at: Option<usize> = None;

    let mut i = 0;
    while i < tokens.len() {
        let text = tokens[i].text.as_str();
        match text {
            "{" => {
                if plain_cond_at == Some(depth) {
                    guards.retain(|g| !(g.transient && g.depth == depth));
                    plain_cond_at = None;
                }
                depth += 1;
            }
            "}" => {
                depth = depth.saturating_sub(1);
                // Closing back to a transient guard's depth ends the
                // statement that spawned it (`if let`/`match` bodies).
                guards.retain(|g| g.depth <= depth && !(g.transient && g.depth == depth));
            }
            "(" => {
                let callee = match i.checked_sub(1).map(|j| &tokens[j]) {
                    Some(t) if t.kind == TokenKind::Ident => Some(t.text.clone()),
                    _ => None,
                };
                paren_stack.push(callee);
            }
            ")" => {
                paren_stack.pop();
            }
            ";" => {
                pending_let = None;
                plain_cond_at = None;
                guards.retain(|g| !(g.transient && g.depth == depth));
            }
            "if" | "while"
                if tokens[i].kind == TokenKind::Ident
                    && tokens.get(i + 1).map(|t| t.text.as_str()) != Some("let") =>
            {
                plain_cond_at = Some(depth);
            }
            "let" if tokens[i].kind == TokenKind::Ident => {
                // `let [mut] name =` — anything fancier is treated as a
                // transient-guard statement.
                let mut j = i + 1;
                if tokens.get(j).map(|t| t.text.as_str()) == Some("mut") {
                    j += 1;
                }
                pending_let = match (tokens.get(j), tokens.get(j + 1)) {
                    (Some(name), Some(eq)) if name.kind == TokenKind::Ident && eq.text == "=" => {
                        Some(name.text.clone())
                    }
                    _ => None,
                };
            }
            "drop" if tokens[i].kind == TokenKind::Ident => {
                if let (Some(open), Some(arg), Some(close)) =
                    (tokens.get(i + 1), tokens.get(i + 2), tokens.get(i + 3))
                {
                    if open.text == "(" && close.text == ")" && arg.kind == TokenKind::Ident {
                        if let Some(pos) = guards
                            .iter()
                            .rposition(|g| g.binding.as_deref() == Some(arg.text.as_str()))
                        {
                            guards.remove(pos);
                        }
                    }
                }
            }
            _ => {}
        }

        if let Some(method) = is_acquisition(tokens, i) {
            let line = tokens[i + 1].line;
            let receiver = match i.checked_sub(1).map(|j| &tokens[j]) {
                Some(t) if t.kind == TokenKind::Ident => t.text.clone(),
                _ => "?".to_string(),
            };
            let rank = ranks.get(receiver.as_str()).copied();

            // lock-order: acquiring an outer-ranked lock while holding an
            // inner-ranked one inverts the declared hierarchy.
            if let Some(new_rank) = rank {
                for held in &guards {
                    if let Some(held_rank) = held.rank {
                        if new_rank < held_rank {
                            findings.push(Finding {
                                rule: "lock-order",
                                file: file.to_path_buf(),
                                line,
                                message: format!(
                                    "acquires '{receiver}' (hierarchy rank {new_rank}) while \
                                     holding '{}' (rank {held_rank}, taken line {}); the declared \
                                     order requires '{receiver}' first",
                                    held.name, held.line
                                ),
                            });
                        }
                    }
                }
            }

            // lock-across-blocking, inverted form: the guard is born
            // inside the argument list of a blocking call
            // (`write_frame(&mut *writer.lock(), ..)`), so the lock is
            // held for the whole blocking call.
            if let Some(callee) = paren_stack.iter().flatten().find(|c| {
                BLOCKING_FREE_FNS.contains(&c.as_str())
                    || BLOCKING_METHODS_ANY_ARGS.contains(&c.as_str())
            }) {
                findings.push(Finding {
                    rule: "lock-across-blocking",
                    file: file.to_path_buf(),
                    line,
                    message: format!(
                        "guard from '{receiver}.{method}()' lives inside the argument list of \
                         blocking call '{callee}' — the lock is held across the entire call"
                    ),
                });
            }

            // Register the guard.  Scoped when let-bound to a plain name
            // with nothing chained after the call; transient otherwise.
            let after = tokens.get(i + 4).map(|t| t.text.as_str());
            let chained = after == Some(".");
            let deref_before = pending_let.is_some()
                && i.checked_sub(2)
                    .map(|j| tokens[j].text == "*")
                    .unwrap_or(false);
            let binding = if chained || deref_before {
                None
            } else {
                pending_let.clone()
            };
            guards.push(Guard {
                name: receiver,
                rank,
                transient: binding.is_none(),
                binding,
                depth,
                line,
            });
            i += 4; // past `.method()`
            continue;
        }

        // lock-across-blocking, direct form: a blocking call while any
        // guard is held.
        if !guards.is_empty() && text == "." {
            if let Some(callee) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) {
                let name = callee.text.as_str();
                let open = tokens.get(i + 2).map(|t| t.text.as_str()) == Some("(");
                let zero_args = open && tokens.get(i + 3).map(|t| t.text.as_str()) == Some(")");
                let blocking = open
                    && (BLOCKING_METHODS_ANY_ARGS.contains(&name)
                        || (zero_args && BLOCKING_METHODS_ZERO_ARGS.contains(&name)));
                let is_wait = open && CONDVAR_WAITS.contains(&name);
                let wait_on_guard = is_wait
                    && tokens
                        .get(i + 3)
                        .map(|t| {
                            t.kind == TokenKind::Ident
                                && guards
                                    .iter()
                                    .any(|g| g.binding.as_deref() == Some(t.text.as_str()))
                        })
                        .unwrap_or(false);
                if blocking || (is_wait && !wait_on_guard) {
                    let held = guards.last().expect("guards non-empty");
                    findings.push(Finding {
                        rule: "lock-across-blocking",
                        file: file.to_path_buf(),
                        line: callee.line,
                        message: format!(
                            "blocking call '.{name}(..)' while holding guard on '{}' \
                             (taken line {})",
                            held.name, held.line
                        ),
                    });
                }
            }
        }
        if !guards.is_empty()
            && tokens[i].kind == TokenKind::Ident
            && BLOCKING_FREE_FNS.contains(&text)
            && tokens.get(i + 1).map(|t| t.text.as_str()) == Some("(")
            && i.checked_sub(1)
                .map(|j| tokens[j].text != "." && tokens[j].text != "fn")
                .unwrap_or(true)
        {
            let held = guards.last().expect("guards non-empty");
            findings.push(Finding {
                rule: "lock-across-blocking",
                file: file.to_path_buf(),
                line: tokens[i].line,
                message: format!(
                    "blocking call '{text}(..)' while holding guard on '{}' (taken line {})",
                    held.name, held.line
                ),
            });
        }

        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Rule 3: reactor-blocking (name-based call-graph reachability)
// ---------------------------------------------------------------------------

/// Channel/thread operations that park the calling thread — forbidden on
/// reactor I/O threads, whose stall freezes every session on that
/// thread.  (`try_recv` and friends are fine.)  [`MANAGER_PARKING_CALLS`]
/// adds the backend calls that park behind a trait object.
const REACTOR_BLOCKING_ZERO_ARGS: &[&str] = &["recv", "join"];
const REACTOR_BLOCKING_ANY_ARGS: &[&str] = &["recv_timeout", "recv_deadline"];

/// Calls on the daemon's hosted backend (`shared.manager.wait(..)`) that
/// may park.  The backend is a `dyn ResourceManager`, so the walk cannot
/// follow the call into whatever runs behind it — the method name has to
/// carry the contract instead.  The blocking redemptions wait for an
/// outcome a stage or a peer produces.  `allocate_with`, `stats` and
/// `release_with` promise not to park and are deliberately absent.
const MANAGER_PARKING_CALLS: &[&str] = &[
    "submit",
    "submit_text",
    "wait",
    "wait_deadline",
    "try_poll",
    "release",
    "shutdown",
];

/// Calls that park for a WAN round trip: a blocking dial
/// (`Conn::dial(..)`, connect and handshake under the connect timeout), a
/// name lookup (`.to_socket_addrs()`, a blocking `getaddrinfo`), and an
/// inbound delegation served by blocking on the local backend
/// (`handle_delegate(..)`, any receiver).  The completion paths must reach
/// none of them: the reactor dials every peer link, and a daemon resolves
/// its peers' names when it starts serving.
const PEER_PARKING_CALLS: &[(&str, Option<&str>)] = &[
    ("dial", Some("Conn")),
    ("to_socket_addrs", None),
    ("handle_delegate", None),
];

/// Calls whose argument (a closure) runs on a *different* thread: thread
/// spawns.  Their argument lists are skipped entirely — blocking inside
/// them is the spawned thread's business, not the reactor thread's.
const DISPATCH_CALLS: &[&str] = &["spawn"];

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "mut",
    "ref", "move", "fn", "pub", "use", "mod", "struct", "enum", "trait", "impl", "type", "where",
    "unsafe", "dyn", "as", "in", "crate", "super", "self", "Self", "true", "false", "Some", "None",
    "Ok", "Err", "Box", "Vec", "String",
];

#[derive(Debug, Default)]
struct FnInfo {
    /// Free-function and zero-argument method calls.
    calls: BTreeSet<String>,
    /// Method calls with arguments (`state.send(&frame)`).
    method_calls: BTreeSet<String>,
    blocking: Vec<(String, usize)>,
}

/// Function identity: defining file + name.  Name-only resolution
/// merges every `fn drain` in the workspace into one node, which
/// manufactures call chains no thread ever runs; a call is resolved to
/// the same file first, then to the one sibling file (same directory —
/// the modules one subsystem is split over) defining the name, then to a
/// globally unique definition, and dropped as ambiguous otherwise.
///
/// A method call *with arguments* is almost always a std/library method
/// (`stream.shutdown(Both)`, `vec.push(x)`), so it never resolves
/// globally — that fabricates edges to unrelated workspace functions —
/// but it does resolve within the file and its siblings: `OutQueue::push`
/// is reached through `state.send(..)` → `queue.push(..)` and must not
/// drop out of the graph.
///
/// A call to the caller's own name is taken for a wrapper delegating to
/// another type's method of that name (`Ledger::launch` calling
/// `self.launcher.launch(..)`), so it skips the caller's file: resolving it
/// there would only be recursion, which reaches nothing new.
pub type FnId = (PathBuf, String);

/// Resolves one call from `caller` to the file whose definition of
/// `callee` it means, by the tiers described on [`FnId`].
fn resolve_call(
    files_defining: &HashMap<String, BTreeSet<PathBuf>>,
    caller: &FnId,
    callee: &str,
    global: bool,
) -> Option<PathBuf> {
    let caller_file = caller.0.as_path();
    let delegating = caller.1 == callee;
    let defined_in = files_defining.get(callee)?;
    if defined_in.contains(caller_file) && !delegating {
        return Some(caller_file.to_path_buf());
    }
    let mut siblings = defined_in
        .iter()
        .filter(|file| file.parent() == caller_file.parent() && file.as_path() != caller_file);
    match (siblings.next(), siblings.next()) {
        (Some(only), None) => return Some(only.clone()),
        (Some(_), Some(_)) => return None,
        _ => {}
    }
    if global && defined_in.len() == 1 {
        return defined_in.iter().next().cloned();
    }
    None // ambiguous cross-file name: don't invent an edge
}

/// Every function reachable from `entry_points` over the call graph of
/// `files`, with the call chain that reaches it.
fn reactor_paths(
    files: &[(PathBuf, Lexed)],
    entry_points: &[String],
) -> (HashMap<FnId, FnInfo>, BTreeMap<FnId, Vec<String>>) {
    let mut graph: HashMap<FnId, FnInfo> = HashMap::new();
    let mut files_defining: HashMap<String, BTreeSet<PathBuf>> = HashMap::new();

    for (rel, lexed) in files {
        let tokens = &lexed.tokens;
        let mut i = 0;
        while i < tokens.len() {
            if tokens[i].kind == TokenKind::Ident && tokens[i].text == "fn" {
                if let Some(name_tok) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) {
                    let name = name_tok.text.clone();
                    // Find the body's opening brace (signatures carry no
                    // braces in this codebase) and walk it.
                    let mut j = i + 2;
                    while j < tokens.len() && tokens[j].text != "{" && tokens[j].text != ";" {
                        j += 1;
                    }
                    if j < tokens.len() && tokens[j].text == "{" {
                        files_defining
                            .entry(name.clone())
                            .or_default()
                            .insert(rel.clone());
                        let info = graph.entry((rel.clone(), name)).or_default();
                        let mut depth = 1;
                        let mut k = j + 1;
                        while k < tokens.len() && depth > 0 {
                            match tokens[k].text.as_str() {
                                "{" => depth += 1,
                                "}" => depth -= 1,
                                _ => {
                                    if let Some(skip_to) = dispatch_call_end(tokens, k) {
                                        k = skip_to;
                                        continue;
                                    }
                                    record_call(tokens, k, info);
                                }
                            }
                            k += 1;
                        }
                        i = j;
                    }
                }
            }
            i += 1;
        }
    }

    // BFS from the entry points over workspace-defined functions.
    let mut queue: VecDeque<FnId> = VecDeque::new();
    let mut path_to: BTreeMap<FnId, Vec<String>> = BTreeMap::new();
    for entry in entry_points {
        let (only_in, name) = match entry.rsplit_once("::") {
            Some((file, name)) => (Some(Path::new(file)), name),
            None => (None, entry.as_str()),
        };
        for file in files_defining.get(name).into_iter().flatten() {
            if only_in.is_some_and(|only| only != file) {
                continue;
            }
            let id = (file.clone(), name.to_string());
            path_to.insert(id.clone(), vec![entry.clone()]);
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        let path = path_to[&id].clone();
        let Some(info) = graph.get(&id) else {
            continue;
        };
        let calls = info.calls.iter().map(|callee| (callee, true));
        let method_calls = info.method_calls.iter().map(|callee| (callee, false));
        for (callee, global) in calls.chain(method_calls) {
            if let Some(file) = resolve_call(&files_defining, &id, callee, global) {
                let next_id = (file, callee.clone());
                if !path_to.contains_key(&next_id) {
                    let mut next = path.clone();
                    next.push(callee.clone());
                    path_to.insert(next_id.clone(), next);
                    queue.push_back(next_id);
                }
            }
        }
    }
    (graph, path_to)
}

fn check_reactor(files: &[(PathBuf, Lexed)], entry_points: &[String], findings: &mut Vec<Finding>) {
    let (graph, path_to) = reactor_paths(files, entry_points);
    let mut reported: HashSet<(PathBuf, usize)> = HashSet::new();
    for (id, path) in &path_to {
        for (op, line) in &graph[id].blocking {
            if reported.insert((id.0.clone(), *line)) {
                findings.push(Finding {
                    rule: "reactor-blocking",
                    file: id.0.clone(),
                    line: *line,
                    message: format!(
                        "blocking '{op}' reachable from reactor I/O entry via {}",
                        path.join(" -> ")
                    ),
                });
            }
        }
    }
}

/// The functions the `reactor-blocking` walk reaches from `entry_points`
/// over the `.rs` files under `root` (paths relative to it) — every one
/// of them is a place where a blocking call would be reported.
// lint-allow(reach): crates/lint/tests/real_tree.rs pins the walk with it
pub fn reactor_reachable(root: &Path, entry_points: &[String]) -> std::io::Result<BTreeSet<FnId>> {
    let (_, path_to) = reactor_paths(&lex_tree(root, &[])?, entry_points);
    Ok(path_to.into_keys().collect())
}

/// If token `k` opens a dispatch call (`spawn(..)`, `.spawn(..)`),
/// returns the index of its closing paren so the caller skips the whole
/// argument list — that closure runs on another thread.
fn dispatch_call_end(tokens: &[Token], k: usize) -> Option<usize> {
    if tokens[k].kind != TokenKind::Ident || !DISPATCH_CALLS.contains(&tokens[k].text.as_str()) {
        return None;
    }
    if tokens.get(k + 1).map(|t| t.text.as_str()) != Some("(") {
        return None;
    }
    let mut depth = 1usize;
    let mut j = k + 2;
    while j < tokens.len() && depth > 0 {
        match tokens[j].text.as_str() {
            "(" => depth += 1,
            ")" => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    Some(j)
}

fn record_call(tokens: &[Token], k: usize, info: &mut FnInfo) {
    if tokens[k].kind != TokenKind::Ident {
        return;
    }
    let name = tokens[k].text.as_str();
    let called = tokens.get(k + 1).map(|t| t.text.as_str()) == Some("(");
    if !called {
        return;
    }
    let prev = k.checked_sub(1).map(|j| tokens[j].text.as_str());
    let is_method = prev == Some(".");
    // A bare `drop(..)` is always `std::mem::drop`: calling a `Drop::drop`
    // by hand does not compile, so it must not resolve to one.
    if prev == Some("fn") || KEYWORDS.contains(&name) || (!is_method && name == "drop") {
        return;
    }
    let zero_args = tokens.get(k + 2).map(|t| t.text.as_str()) == Some(")");
    if !is_method || zero_args {
        info.calls.insert(name.to_string());
    } else {
        info.method_calls.insert(name.to_string());
    }
    // A path call's receiver is its type: `Conn::dial(..)` lexes as
    // `Conn : : dial (`.
    let path_call = prev == Some(":") && k >= 3 && tokens[k - 2].text == ":";
    if path_call {
        let receiver = Some(tokens[k - 3].text.as_str());
        if PEER_PARKING_CALLS.contains(&(name, receiver)) {
            let receiver = tokens[k - 3].text.as_str();
            info.blocking
                .push((format!("{receiver}::{name}()"), tokens[k].line));
        }
    }
    if is_method {
        let blocking = (zero_args && REACTOR_BLOCKING_ZERO_ARGS.contains(&name))
            || REACTOR_BLOCKING_ANY_ARGS.contains(&name);
        let receiver = k.checked_sub(2).map(|j| tokens[j].text.as_str());
        let peer_parking = PEER_PARKING_CALLS
            .iter()
            .any(|&(call, on)| call == name && (on.is_none() || on == receiver));
        if blocking {
            info.blocking.push((format!(".{name}()"), tokens[k].line));
        } else if receiver == Some("manager") && MANAGER_PARKING_CALLS.contains(&name) {
            info.blocking
                .push((format!("manager.{name}()"), tokens[k].line));
        } else if peer_parking {
            let receiver = receiver.unwrap_or("?");
            info.blocking
                .push((format!("{receiver}.{name}()"), tokens[k].line));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: frame-tags
// ---------------------------------------------------------------------------

fn parse_int(text: &str) -> Option<u64> {
    let cleaned: String = text.chars().filter(|c| *c != '_').collect();
    let cleaned = cleaned
        .trim_end_matches(|c: char| c.is_ascii_alphabetic())
        .to_string();
    // Suffix trimming may eat hex digits; retry with the prefix intact.
    if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        let digits: String = hex.chars().take_while(|c| c.is_ascii_hexdigit()).collect();
        return u64::from_str_radix(&digits, 16).ok();
    }
    cleaned.parse().ok()
}

/// Variant names (with lines) of `enum <name>` in the token stream.
fn enum_variants(tokens: &[Token], name: &str) -> Vec<(String, usize)> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text == "enum"
            && tokens.get(i + 1).map(|t| t.text.as_str()) == Some(name)
            && tokens.get(i + 2).map(|t| t.text.as_str()) == Some("{")
        {
            let mut depth = 1;
            let mut j = i + 3;
            let mut prev = "{".to_string();
            while j < tokens.len() && depth > 0 {
                let t = &tokens[j];
                match t.text.as_str() {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => depth -= 1,
                    _ => {}
                }
                if depth == 1
                    && t.kind == TokenKind::Ident
                    && (prev == "{" || prev == "," || prev == "]")
                    && t.text.chars().next().is_some_and(|c| c.is_uppercase())
                {
                    variants.push((t.text.clone(), t.line));
                }
                prev = t.text.clone();
                j += 1;
            }
            break;
        }
        i += 1;
    }
    variants
}

fn check_frames(
    config: &LintConfig,
    spec: &FramesSpec,
    files: &[(PathBuf, Lexed)],
    findings: &mut Vec<Finding>,
) -> std::io::Result<()> {
    let Some((_, lexed)) = files.iter().find(|(rel, _)| *rel == spec.file) else {
        return Ok(());
    };
    let tokens = &lexed.tokens;
    let doc = std::fs::read_to_string(config.root.join(&spec.protocol_doc)).unwrap_or_default();
    let doc_tags = doc_name_tags(&doc);

    for enum_name in &spec.enums {
        let variants = enum_variants(tokens, enum_name);
        if variants.is_empty() {
            findings.push(Finding {
                rule: "frame-tags",
                file: spec.file.clone(),
                line: 1,
                message: format!("enum '{enum_name}' not found"),
            });
            continue;
        }
        let variant_lines: HashMap<&str, usize> =
            variants.iter().map(|(n, l)| (n.as_str(), *l)).collect();

        // Scan for encode arms (`Enum::Variant .. => { out.push(N) }`)
        // and decode arms (`N => Enum::Variant`).
        let mut encode: BTreeMap<String, (u64, usize)> = BTreeMap::new();
        let mut decode: BTreeMap<String, (u64, usize)> = BTreeMap::new();
        let mut i = 0;
        while i + 3 < tokens.len() {
            let here = tokens[i].text == *enum_name
                && tokens[i + 1].text == ":"
                && tokens[i + 2].text == ":"
                && tokens[i + 3].kind == TokenKind::Ident
                && tokens[i + 3]
                    .text
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_uppercase());
            if !here {
                i += 1;
                continue;
            }
            let variant = tokens[i + 3].text.clone();
            let line = tokens[i + 3].line;
            // Decode arm: immediately preceded by `<number> =>`.
            let decode_arm = i >= 3
                && tokens[i - 1].text == ">"
                && tokens[i - 2].text == "="
                && tokens[i - 3].kind == TokenKind::Number;
            if decode_arm {
                if let Some(tag) = parse_int(&tokens[i - 3].text) {
                    if decode.contains_key(&variant) {
                        findings.push(Finding {
                            rule: "frame-tags",
                            file: spec.file.clone(),
                            line,
                            message: format!("{enum_name}::{variant} has more than one decode arm"),
                        });
                    } else {
                        decode.insert(variant.clone(), (tag, line));
                    }
                }
                i += 4;
                continue;
            }
            // Encode arm: `out.push(N)` before the next `Enum::` mention.
            let mut j = i + 4;
            while j + 4 < tokens.len() {
                if spec.enums.iter().any(|e| tokens[j].text == *e)
                    && tokens[j + 1].text == ":"
                    && tokens[j + 2].text == ":"
                {
                    break;
                }
                if tokens[j].text == "out"
                    && tokens[j + 1].text == "."
                    && tokens[j + 2].text == "push"
                    && tokens[j + 3].text == "("
                    && tokens[j + 4].kind == TokenKind::Number
                {
                    if let Some(tag) = parse_int(&tokens[j + 4].text) {
                        encode.entry(variant.clone()).or_insert((tag, line));
                    }
                    break;
                }
                j += 1;
            }
            i += 4;
        }

        // Tag uniqueness on the encode side.
        let mut by_tag: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
        for (variant, (tag, _)) in &encode {
            by_tag.entry(*tag).or_default().push(variant);
        }
        for (tag, users) in &by_tag {
            if users.len() > 1 {
                findings.push(Finding {
                    rule: "frame-tags",
                    file: spec.file.clone(),
                    line: *variant_lines.get(users[1]).unwrap_or(&1),
                    message: format!(
                        "{enum_name} tag {tag} encoded by more than one variant: {}",
                        users.join(", ")
                    ),
                });
            }
        }

        for (variant, line) in &variants {
            let enc = encode.get(variant);
            let dec = decode.get(variant);
            match (enc, dec) {
                (None, _) => findings.push(Finding {
                    rule: "frame-tags",
                    file: spec.file.clone(),
                    line: *line,
                    message: format!("{enum_name}::{variant} has no encode arm pushing a tag"),
                }),
                (_, None) => findings.push(Finding {
                    rule: "frame-tags",
                    file: spec.file.clone(),
                    line: *line,
                    message: format!("{enum_name}::{variant} has no decode arm"),
                }),
                (Some((etag, _)), Some((dtag, dline))) if etag != dtag => {
                    findings.push(Finding {
                        rule: "frame-tags",
                        file: spec.file.clone(),
                        line: *dline,
                        message: format!(
                            "{enum_name}::{variant} encodes tag {etag} but decodes tag {dtag}"
                        ),
                    });
                }
                _ => {}
            }
            if let Some((etag, _)) = enc {
                match doc_tags.get(variant.as_str()) {
                    Some(tags) if tags.contains(etag) => {}
                    Some(tags) => findings.push(Finding {
                        rule: "frame-tags",
                        file: spec.protocol_doc.clone(),
                        line: 1,
                        message: format!(
                            "{enum_name}::{variant} is tag {etag} in code but {tags:?} in {}",
                            spec.protocol_doc.display()
                        ),
                    }),
                    None => findings.push(Finding {
                        rule: "frame-tags",
                        file: spec.protocol_doc.clone(),
                        line: 1,
                        message: format!(
                            "{enum_name}::{variant} (tag {etag}) missing from the frame table in {}",
                            spec.protocol_doc.display()
                        ),
                    }),
                }
            }
        }
        for variant in decode.keys() {
            if !variant_lines.contains_key(variant.as_str()) {
                findings.push(Finding {
                    rule: "frame-tags",
                    file: spec.file.clone(),
                    line: decode[variant].1,
                    message: format!("decode arm names unknown variant {enum_name}::{variant}"),
                });
            }
        }
    }
    Ok(())
}

/// `` `Name` (N) `` occurrences in the protocol doc: name → tag set.
fn doc_name_tags(doc: &str) -> HashMap<String, BTreeSet<u64>> {
    let mut map: HashMap<String, BTreeSet<u64>> = HashMap::new();
    let bytes = doc.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'`' {
            i += 1;
            continue;
        }
        let start = i + 1;
        let Some(end_rel) = doc[start..].find('`') else {
            break;
        };
        let name = &doc[start..start + end_rel];
        let mut j = start + end_rel + 1;
        while j < bytes.len() && (bytes[j] == b' ') {
            j += 1;
        }
        if bytes.get(j) == Some(&b'(') {
            let digits_start = j + 1;
            let mut k = digits_start;
            while k < bytes.len() && bytes[k].is_ascii_digit() {
                k += 1;
            }
            if k > digits_start && bytes.get(k) == Some(&b')') {
                if let Ok(tag) = doc[digits_start..k].parse::<u64>() {
                    if name.chars().all(|c| c.is_ascii_alphanumeric()) && !name.is_empty() {
                        map.entry(name.to_string()).or_default().insert(tag);
                    }
                }
            }
        }
        i = start + end_rel + 1;
    }
    map
}

// ---------------------------------------------------------------------------
// Rule 5: stats-fields
// ---------------------------------------------------------------------------

fn struct_fields(tokens: &[Token], name: &str) -> Vec<(String, usize)> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text == "struct"
            && tokens.get(i + 1).map(|t| t.text.as_str()) == Some(name)
            && tokens.get(i + 2).map(|t| t.text.as_str()) == Some("{")
        {
            let mut depth = 1;
            let mut j = i + 3;
            while j < tokens.len() && depth > 0 {
                match tokens[j].text.as_str() {
                    "{" | "(" | "[" | "<" => depth += 1,
                    "}" | ")" | "]" | ">" => depth -= 1,
                    _ => {
                        if depth == 1
                            && tokens[j].kind == TokenKind::Ident
                            && tokens[j].text != "pub"
                            && tokens.get(j + 1).map(|t| t.text.as_str()) == Some(":")
                            && tokens.get(j + 2).map(|t| t.text.as_str()) != Some(":")
                        {
                            fields.push((tokens[j].text.clone(), tokens[j].line));
                        }
                    }
                }
                j += 1;
            }
            break;
        }
        i += 1;
    }
    fields
}

/// Identifier set within a site's region (fn body or `impl T for S`).
fn site_idents(tokens: &[Token], kind: &SiteKind, struct_name: &str) -> Option<HashSet<String>> {
    let mut i = 0;
    while i < tokens.len() {
        let hit = match kind {
            SiteKind::FnBody(name) => {
                tokens[i].text == "fn" && tokens.get(i + 1).map(|t| t.text.as_str()) == Some(name)
            }
            SiteKind::ImplFor(trait_name) => {
                tokens[i].text == "impl"
                    && tokens.get(i + 1).map(|t| t.text.as_str()) == Some(trait_name)
                    && tokens.get(i + 2).map(|t| t.text.as_str()) == Some("for")
                    && tokens.get(i + 3).map(|t| t.text.as_str()) == Some(struct_name)
            }
        };
        if hit {
            let mut j = i + 1;
            while j < tokens.len() && tokens[j].text != "{" {
                j += 1;
            }
            let mut depth = 1;
            let mut idents = HashSet::new();
            j += 1;
            while j < tokens.len() && depth > 0 {
                match tokens[j].text.as_str() {
                    "{" => depth += 1,
                    "}" => depth -= 1,
                    _ => {
                        if tokens[j].kind == TokenKind::Ident {
                            idents.insert(tokens[j].text.clone());
                        }
                    }
                }
                j += 1;
            }
            return Some(idents);
        }
        i += 1;
    }
    None
}

fn check_stats(spec: &StatsSpec, files: &[(PathBuf, Lexed)], findings: &mut Vec<Finding>) {
    let Some((_, struct_lexed)) = files.iter().find(|(rel, _)| *rel == spec.struct_file) else {
        return;
    };
    let fields = struct_fields(&struct_lexed.tokens, &spec.struct_name);
    if fields.is_empty() {
        findings.push(Finding {
            rule: "stats-fields",
            file: spec.struct_file.clone(),
            line: 1,
            message: format!("struct '{}' not found or has no fields", spec.struct_name),
        });
        return;
    }
    for site in &spec.sites {
        let Some((_, lexed)) = files.iter().find(|(rel, _)| *rel == site.file) else {
            findings.push(Finding {
                rule: "stats-fields",
                file: site.file.clone(),
                line: 1,
                message: format!("stats site file missing for '{}'", site.label),
            });
            continue;
        };
        let Some(idents) = site_idents(&lexed.tokens, &site.kind, &spec.struct_name) else {
            findings.push(Finding {
                rule: "stats-fields",
                file: site.file.clone(),
                line: 1,
                message: format!("stats site '{}' not found", site.label),
            });
            continue;
        };
        for (field, line) in &fields {
            if !idents.contains(field) {
                findings.push(Finding {
                    rule: "stats-fields",
                    file: spec.struct_file.clone(),
                    line: *line,
                    message: format!(
                        "field '{field}' of {} missing from {}",
                        spec.struct_name, site.label
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 6: sleep-poll
// ---------------------------------------------------------------------------

/// `thread::sleep(..)` inside a `loop`, `while` or `for` body, in the
/// non-test code of the files under `roots`: a sleep-poll, which spends a
/// thread to learn late what a completion, a latch or a timer says at once.
/// An item gated `#[cfg(..)]` on `test` (and not on `not(..)`) is skipped,
/// and so is the `for` of an `impl .. for` header or a `for<'a>` bound.
fn check_sleep_poll(files: &[(PathBuf, Lexed)], roots: &[PathBuf], findings: &mut Vec<Finding>) {
    for (rel, lexed) in files {
        if !roots.iter().any(|root| rel.starts_with(root)) {
            continue;
        }
        let tokens = &lexed.tokens;
        // Brace depths at which the enclosing loop bodies opened.
        let mut loops: Vec<usize> = Vec::new();
        let (mut depth, mut loop_next, mut impl_header) = (0usize, false, false);
        let mut i = 0;
        while i < tokens.len() {
            if let Some(end) = test_item_end(tokens, i) {
                i = end;
                continue;
            }
            let token = &tokens[i];
            let next = tokens.get(i + 1).map(|t| t.text.as_str());
            match token.text.as_str() {
                "{" => {
                    depth += 1;
                    if std::mem::take(&mut loop_next) {
                        loops.push(depth);
                    }
                    impl_header = false;
                }
                "}" => {
                    if loops.last() == Some(&depth) {
                        loops.pop();
                    }
                    depth = depth.saturating_sub(1);
                }
                _ if token.kind != TokenKind::Ident => {}
                "impl" => impl_header = true,
                "loop" | "while" => loop_next = true,
                "for" if !impl_header && next != Some("<") => loop_next = true,
                "sleep"
                    if !loops.is_empty()
                        && next == Some("(")
                        && i >= 3
                        && tokens[i - 1].text == ":"
                        && tokens[i - 2].text == ":"
                        && tokens[i - 3].text == "thread" =>
                {
                    findings.push(Finding {
                        rule: "sleep-poll",
                        file: rel.clone(),
                        line: token.line,
                        message: "`thread::sleep` inside a loop: wait on the completion, latch \
                                  or timer that says when instead"
                            .to_string(),
                    });
                }
                _ => {}
            }
            i += 1;
        }
    }
}

/// When token `i` opens an attribute `#[cfg(..)]` naming `test` and not
/// `not`, the index just past the item it gates: past the item's block or
/// its `;` or `,`, or at the `}` that closes its parent.
fn test_item_end(tokens: &[Token], i: usize) -> Option<usize> {
    let text = |j: usize| tokens.get(j).map(|t| t.text.as_str());
    if text(i) != Some("#") || text(i + 1) != Some("[") || text(i + 2) != Some("cfg") {
        return None;
    }
    let (mut j, mut brackets, mut test, mut not) = (i + 2, 1usize, false, false);
    while brackets > 0 {
        match text(j)? {
            "[" => brackets += 1,
            "]" => brackets -= 1,
            "test" => test = true,
            "not" => not = true,
            _ => {}
        }
        j += 1;
    }
    if !test || not {
        return None;
    }
    let mut nesting = 0usize;
    while let Some(token) = text(j) {
        match token {
            "(" | "[" => nesting += 1,
            ")" | "]" => nesting = nesting.saturating_sub(1),
            ";" | "," if nesting == 0 => return Some(j + 1),
            "}" if nesting == 0 => return Some(j),
            "{" if nesting == 0 => {
                let mut braces = 0usize;
                while let Some(token) = text(j) {
                    j += 1;
                    match token {
                        "{" => braces += 1,
                        "}" if braces == 1 => return Some(j),
                        "}" => braces -= 1,
                        _ => {}
                    }
                }
                return Some(j);
            }
            _ => {}
        }
        j += 1;
    }
    Some(j)
}

// ---------------------------------------------------------------------------
// Rule 7: reach
// ---------------------------------------------------------------------------

/// Whether `rel` is library code whose `pub` items must be reached: a file
/// under `crates/<name>/src`, the shims, `main.rs` and `src/bin` aside.
fn defines_items(rel: &Path) -> bool {
    let parts: Vec<_> = rel.iter().map(|part| part.to_string_lossy()).collect();
    parts.len() > 3
        && (parts[0] == "crates" && parts[1] != "shims" && parts[2] == "src")
        && !matches!(&*parts[3], "bin" | "main.rs")
}

/// The indices of `tokens` outside items gated `#[cfg(test)]` and outside
/// `pub use` re-exports.
fn live_tokens(tokens: &[Token]) -> Vec<usize> {
    let (mut live, mut i) = (Vec::new(), 0);
    while i < tokens.len() {
        if let Some(end) = test_item_end(tokens, i) {
            i = end;
        } else if tokens[i].text == "pub" && tokens.get(i + 1).is_some_and(|t| t.text == "use") {
            i = item_end(tokens, i);
        } else {
            live.push(i);
            i += 1;
        }
    }
    live
}

/// When token `i` is the `pub` of an item (not `pub(..)` or `pub mod`),
/// the item's kind, the index of its name and the index past its end.
fn pub_item(tokens: &[Token], i: usize) -> Option<(String, usize, usize)> {
    let text = |j: usize| tokens.get(j).map_or("", |t| t.text.as_str());
    let mut j = i + 1;
    while matches!(text(j), "unsafe" | "async" | "extern")
        || tokens.get(j).is_some_and(|t| t.kind == TokenKind::Literal)
        || (text(j) == "const" && matches!(text(j + 1), "fn" | "unsafe" | "async"))
    {
        j += 1;
    }
    let kind = text(j);
    let kinds = ["fn", "struct", "enum", "trait", "type", "const", "static"];
    if text(i) != "pub" || !kinds.contains(&kind) {
        return None;
    }
    let name = j + 1 + usize::from(text(j + 1) == "mut");
    tokens.get(name).filter(|t| t.kind == TokenKind::Ident)?;
    Some((kind.to_string(), name, item_end(tokens, name)))
}

/// The index past the item whose tokens continue at `from`: past its `;`,
/// or past the `}` that closes its body.
fn item_end(tokens: &[Token], from: usize) -> usize {
    let mut nesting = 0usize;
    for (j, token) in tokens.iter().enumerate().skip(from) {
        match token.text.as_str() {
            "(" | "[" | "{" => nesting += 1,
            ")" | "]" => nesting = nesting.saturating_sub(1),
            "}" if nesting <= 1 => return j + 1,
            "}" => nesting -= 1,
            ";" if nesting == 0 => return j + 1,
            _ => {}
        }
    }
    tokens.len()
}

/// When token `i` opens an `impl` block, the last identifier at angle
/// depth 0 of its trait path (if it implements one) and of its self type:
/// `impl<T> Into<U> for crate::Foo<T>` gives the `Into` and `Foo` tokens.
fn impl_header(tokens: &[Token], i: usize) -> Option<(Option<usize>, usize)> {
    let before = i.checked_sub(1).map_or("}", |j| tokens[j].text.as_str());
    if tokens[i].text != "impl" || !matches!(before, "}" | ";" | "]" | "{" | "unsafe") {
        return None;
    }
    let (mut angle, mut last, mut trait_name) = (0usize, None, None);
    for (j, token) in tokens.iter().enumerate().skip(i + 1) {
        match token.text.as_str() {
            "<" => angle += 1,
            ">" if tokens[j - 1].text != "-" => angle = angle.saturating_sub(1),
            "{" | "where" if angle == 0 => break,
            "for" if angle == 0 => trait_name = last.take(),
            "dyn" => {}
            _ if angle == 0 && token.kind == TokenKind::Ident => last = Some(j),
            _ => {}
        }
    }
    Some((trait_name, last?))
}

/// `reach`: a `pub` item in a library crate's non-test code that no
/// non-test code outside its own definition names (docs/CONCURRENCY.md).
/// Names count from bins, examples and `ypbench/src`, not from `tests/`,
/// `#[cfg(test)]` items or `pub use`; only from reached code, to a fixpoint.
/// Resolution is by name, so an item sharing a reached one's name passes.
fn check_reach(files: &[(PathBuf, Lexed)], findings: &mut Vec<Finding>) {
    // The items (name, kind, file, line); whether a `reach` allow sits on
    // each; and per file the token spans (start, end, item) defining them.
    let mut items: Vec<(String, String, PathBuf, usize)> = Vec::new();
    let mut annotated = Vec::new();
    let mut spans: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); files.len()];
    for (f, (rel, lexed)) in files.iter().enumerate() {
        if !defines_items(rel) {
            continue;
        }
        for i in live_tokens(&lexed.tokens) {
            if let Some((kind, name, end)) = pub_item(&lexed.tokens, i) {
                spans[f].push((i, end, items.len()));
                let Token { text, line, .. } = &lexed.tokens[name];
                let on = |a: &&crate::lexer::Allow| a.line == *line || a.line + 1 == *line;
                annotated.push(lexed.allows.iter().filter(on).any(|a| a.rule == "reach"));
                items.push((text.clone(), kind, rel.clone(), *line));
            }
        }
    }
    // Whether one sits on the item or on an item enclosing it.
    let mut kept = annotated.clone();
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (index, (name, ..)) in items.iter().enumerate() {
        by_name.entry(name.as_str()).or_default().push(index);
    }

    // Every name of an item in user code, with the items it sits inside;
    // an `impl` block sits inside its self type, when that is an item.
    let mut mentions: Vec<(&str, Vec<usize>)> = Vec::new();
    for (f, (rel, lexed)) in files.iter().enumerate() {
        if rel.iter().any(|part| part == "tests" || part == "benches") {
            continue;
        }
        let (tokens, crate_dir) = (&lexed.tokens, rel.iter().take(2).collect::<PathBuf>());
        // Spans nest, so the open ones form a stack.
        let (mut open, mut next): (Vec<(usize, usize)>, usize) = (Vec::new(), 0);
        let mut trait_names = HashSet::new();
        for i in live_tokens(tokens) {
            open.retain(|&(end, _)| end > i);
            while let Some(&(_, end, item)) = spans[f].get(next).filter(|span| span.0 <= i) {
                kept[item] |= open.iter().any(|&(_, o)| kept[o]);
                open.push((end, item));
                next += 1;
            }
            if let Some((trait_name, self_type)) = impl_header(tokens, i) {
                trait_names.extend(trait_name);
                let owns =
                    |o: &&usize| items[**o].2.starts_with(&crate_dir) && items[**o].1 != "fn";
                let found = by_name.get(tokens[self_type].text.as_str());
                let owner = found.and_then(|found| found.iter().find(owns).copied());
                if let Some(owner) = owner.filter(|_| defines_items(rel)) {
                    open.push((item_end(tokens, i), owner));
                }
            }
            let token = &tokens[i];
            if token.kind == TokenKind::Ident && !trait_names.contains(&i) {
                if let Some((name, _)) = by_name.get_key_value(token.text.as_str()) {
                    mentions.push((name, open.iter().map(|&(_, item)| item).collect()));
                }
            }
        }
    }

    // `named`: some reached code names the item.  A kept item is reached
    // without that; the allow suppresses its finding, and what it encloses
    // is not reported.
    let (mut reached, mut named) = (kept.clone(), vec![false; items.len()]);
    let mut changed = true;
    while std::mem::take(&mut changed) {
        for (name, inside) in &mentions {
            if inside.iter().all(|&o| reached[o]) {
                for &item in by_name[name].iter().filter(|item| !inside.contains(item)) {
                    changed |= !named[item];
                    (named[item], reached[item]) = (true, true);
                }
            }
        }
    }
    for (index, (name, kind, file, line)) in items.into_iter().enumerate() {
        if !named[index] && (annotated[index] || !kept[index]) {
            findings.push(Finding {
                rule: "reach",
                file,
                line,
                message: format!(
                    "pub {kind} `{name}` is named by no non-test code outside its own \
                     definition: delete it, gate it #[cfg(test)], or move it into the test \
                     that needs it"
                ),
            });
        }
    }
}
