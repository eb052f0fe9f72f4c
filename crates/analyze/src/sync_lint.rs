//! `sync-lint`: the source pass that keeps the `sync::shim` seam airtight.
//!
//! The deterministic-schedule executor ([`crate::sched`]) can only
//! model-check code whose every atomic, mutex, and thread interaction
//! flows through `sack_kernel::sync::shim`. A single direct
//! `std::sync::atomic` call in a protocol file silently escapes the
//! scheduler and rots the executor's "no schedule exists" claim. This
//! pass scans `crates/kernel/src` for
//! direct `std::sync` / `std::thread` (and `parking_lot` / `crossbeam` /
//! `loom`) use, and for raw `std::hint::spin_loop` spin hints — the seam
//! has no spin wait, so a loop that waits for another thread is one the
//! executor cannot schedule — and flags anything that is not:
//!
//! * the shim module itself (`crates/kernel/src/sync/shim.rs`),
//! * an allowed `std::sync` item that carries no scheduling behaviour of
//!   its own (`Arc`, `Weak`, `OnceLock`, `LazyLock`, `PoisonError`,
//!   `atomic::Ordering`),
//! * test-module code (everything after a `#[cfg(test)]` attribute —
//!   by repo convention the test module is the last item in a file),
//! * a comment, or
//! * an entry in the explicit [`ALLOWLIST`] below, each with a recorded
//!   justification. New direct uses anywhere else fail
//!   `scripts/check.sh`; either route them through the shim or add a
//!   conscious allowlist entry in the same PR.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One direct-synchronization use found outside the shim seam.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// File the finding is in (as given, typically repo-relative).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub text: String,
    /// Which forbidden pattern matched.
    pub pattern: &'static str,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: direct `{}` use outside the sync::shim seam: {}",
            self.file, self.line, self.pattern, self.text
        )
    }
}

/// Files whose *entire contents* are exempt, with the justification.
const EXEMPT_FILES: &[(&str, &str)] = &[(
    "kernel/src/sync/shim.rs",
    "the seam itself: the one place std primitives are named",
)];

/// `(path suffix, line fragment, justification)` triples for known
/// legitimate direct uses that predate (and sit outside) the executor's
/// scope. A match requires the file suffix AND the fragment, so a new
/// direct use in the same file still fails.
const ALLOWLIST: &[(&str, &str, &str)] = &[
    (
        "kernel/src/lsm.rs",
        "use std::sync::atomic::{AtomicU64, Ordering};",
        "monotonic hook-dispatch counters; no cross-thread protocol",
    ),
    (
        "kernel/src/trace.rs",
        "use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};",
        "flight-recorder enable flag and drop counters; no reclamation",
    ),
    (
        "kernel/src/sched.rs",
        "use std::thread;",
        "ctx-switch benchmark pair runs two real host threads by design",
    ),
    (
        "kernel/src/smp.rs",
        "use std::sync::atomic::{AtomicBool, Ordering};",
        "storm-driver stop flag; harness orchestration, not protocol state",
    ),
    (
        "kernel/src/smp.rs",
        "use std::sync::{Barrier, OnceLock};",
        "storm-driver start barrier and seed latch; harness orchestration",
    ),
    (
        "kernel/src/smp.rs",
        "std::thread::scope(|s| {",
        "storm drivers deliberately run real OS threads",
    ),
    (
        "kernel/src/smp.rs",
        "std::thread::yield_now();",
        "storm-driver contention pacing",
    ),
    (
        "kernel/src/vfs.rs",
        "use std::sync::atomic::{AtomicU64, Ordering};",
        "inode number allocator; monotonic counter only",
    ),
    (
        "kernel/src/time.rs",
        "use std::sync::atomic::{AtomicU64, Ordering};",
        "simulated clock tick counter; monotonic counter only",
    ),
    (
        "kernel/src/task.rs",
        "use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};",
        "pid allocator and exit flags; monotonic counters only",
    ),
    // The simulated kernel-object tables (inode/dentry, fd tables, task
    // list, pipes, device registry, trace callbacks) use blocking
    // parking_lot locks by design — they model in-kernel spinlock'd
    // structures, are not on the lock-free verdict path, and are outside
    // the executor's protocol scope.
    (
        "kernel/src/device.rs",
        "use parking_lot::RwLock;",
        "device registry table lock; blocking by design",
    ),
    (
        "kernel/src/file.rs",
        "use parking_lot::Mutex;",
        "file-object offset/state lock; blocking by design",
    ),
    (
        "kernel/src/ipc.rs",
        "use parking_lot::{Condvar, Mutex, RwLock};",
        "pipe/socket buffers block readers on a condvar by design",
    ),
    (
        "kernel/src/task.rs",
        "use parking_lot::{Mutex, RwLock};",
        "task list and fd-table locks; blocking by design",
    ),
    (
        "kernel/src/trace.rs",
        "use parking_lot::RwLock;",
        "trace callback registry lock; blocking by design",
    ),
    (
        "kernel/src/vfs.rs",
        "use parking_lot::RwLock;",
        "inode/dentry table locks; blocking by design",
    ),
];

/// `std::sync` items that are safe to name directly: they carry no
/// scheduling decision the executor would need to control.
const ALLOWED_SYNC_ITEMS: &[&str] = &[
    "Arc",
    "Weak",
    "OnceLock",
    "LazyLock",
    "PoisonError",
    "atomic::Ordering",
];

/// The default lint roots for this repository: the kernel crate's
/// sources, home of every lock-free protocol.
#[must_use]
pub fn default_roots(repo_root: &Path) -> Vec<PathBuf> {
    vec![repo_root.join("crates/kernel/src")]
}

/// Lints every `.rs` file under the given roots (files or directories).
///
/// # Errors
///
/// Returns any I/O error encountered while walking or reading sources.
pub fn lint_paths(roots: &[PathBuf]) -> io::Result<Vec<LintFinding>> {
    let mut files = Vec::new();
    for root in roots {
        collect_rs_files(root, &mut files)?;
    }
    files.sort();
    let mut findings = Vec::new();
    for file in files {
        let text = fs::read_to_string(&file)?;
        lint_source(&file.display().to_string(), &text, &mut findings);
    }
    Ok(findings)
}

fn collect_rs_files(path: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if path.is_dir() {
        for entry in fs::read_dir(path)? {
            collect_rs_files(&entry?.path(), out)?;
        }
    } else if path.extension().is_some_and(|e| e == "rs") {
        out.push(path.to_path_buf());
    }
    Ok(())
}

/// Lints one file's source text, appending findings.
pub fn lint_source(file: &str, source: &str, findings: &mut Vec<LintFinding>) {
    let normalized = file.replace('\\', "/");
    if EXEMPT_FILES
        .iter()
        .any(|(sfx, _)| normalized.ends_with(sfx))
    {
        return;
    }
    let mut in_test = false;
    for (idx, raw) in source.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with("#[cfg(test)]") {
            in_test = true;
        }
        if in_test || line.starts_with("//") {
            continue;
        }
        let pattern = match forbidden_pattern(line) {
            Some(p) => p,
            None => continue,
        };
        let allowed = ALLOWLIST
            .iter()
            .any(|(sfx, frag, _)| normalized.ends_with(sfx) && line.contains(frag));
        if !allowed {
            findings.push(LintFinding {
                file: file.to_string(),
                line: idx + 1,
                text: line.to_string(),
                pattern,
            });
        }
    }
}

/// Returns the forbidden pattern a line matches, if any.
fn forbidden_pattern(line: &str) -> Option<&'static str> {
    for pat in [
        "std::thread",
        "core::sync",
        "parking_lot",
        "crossbeam",
        "loom::",
        "std::hint::spin_loop",
        "spin_loop()",
    ] {
        if line.contains(pat) {
            return Some(match pat {
                "std::thread" => "std::thread",
                "core::sync" => "core::sync",
                "parking_lot" => "parking_lot",
                "crossbeam" => "crossbeam",
                "loom::" => "loom",
                _ => "spin_loop",
            });
        }
    }
    let mut rest = line;
    while let Some(pos) = rest.find("std::sync") {
        let after = &rest[pos + "std::sync".len()..];
        if !sync_use_is_allowed(after) {
            return Some("std::sync");
        }
        rest = after;
    }
    None
}

/// Checks the text following `std::sync` against [`ALLOWED_SYNC_ITEMS`].
/// Handles `::Item`, `::atomic::Ordering`, and `::{A, B}` group imports.
fn sync_use_is_allowed(after: &str) -> bool {
    let Some(path) = after.strip_prefix("::") else {
        // `use std::sync;` or `std::sync as x` — whole-module import.
        return false;
    };
    if let Some(group) = path.strip_prefix('{') {
        let Some(end) = group.find('}') else {
            return false; // multi-line group import: be conservative
        };
        return group[..end]
            .split(',')
            .map(str::trim)
            .filter(|item| !item.is_empty())
            .all(item_is_allowed);
    }
    ALLOWED_SYNC_ITEMS
        .iter()
        .any(|item| path.strip_prefix(item).is_some_and(|r| !starts_ident(r)))
}

fn item_is_allowed(item: &str) -> bool {
    ALLOWED_SYNC_ITEMS.contains(&item)
}

fn starts_ident(s: &str) -> bool {
    s.chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(file: &str, src: &str) -> Vec<LintFinding> {
        let mut out = Vec::new();
        lint_source(file, src, &mut out);
        out
    }

    #[test]
    fn arc_and_ordering_imports_are_clean() {
        let src = "use std::sync::Arc;\nuse std::sync::atomic::Ordering;\n\
                   use std::sync::{Arc, OnceLock};\n";
        assert!(lint_str("crates/kernel/src/x.rs", src).is_empty());
    }

    #[test]
    fn direct_atomic_and_mutex_are_flagged() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                   use std::sync::Mutex;\n\
                   let x = std::sync::atomic::AtomicUsize::new(0);\n";
        let findings = lint_str("crates/kernel/src/x.rs", src);
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings.iter().all(|f| f.pattern == "std::sync"));
    }

    #[test]
    fn std_thread_is_flagged() {
        let findings = lint_str("crates/kernel/src/x.rs", "use std::thread;\n");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].pattern, "std::thread");
    }

    #[test]
    fn raw_spin_hints_are_flagged() {
        let src = "while busy() {\n    std::hint::spin_loop();\n}\n\
                   use std::hint::spin_loop;\nspin_loop();\n";
        let findings = lint_str("crates/kernel/src/sync/mod.rs", src);
        assert_eq!(
            findings.iter().map(|f| f.line).collect::<Vec<_>>(),
            [2, 4, 5],
            "{findings:?}"
        );
        assert!(findings.iter().all(|f| f.pattern == "spin_loop"));
    }

    #[test]
    fn comments_and_test_modules_are_skipped() {
        let src = "//! talks about std::sync::Mutex freely\n\
                   // std::thread in a comment\n\
                   #[cfg(test)]\nmod tests {\n    use std::thread;\n}\n";
        assert!(lint_str("crates/kernel/src/x.rs", src).is_empty());
    }

    #[test]
    fn shim_file_is_exempt() {
        let src = "use std::sync::atomic::{AtomicPtr, AtomicU64};\n";
        assert!(lint_str("crates/kernel/src/sync/shim.rs", src).is_empty());
    }

    #[test]
    fn allowlist_requires_both_file_and_fragment() {
        let line = "use std::sync::atomic::{AtomicU64, Ordering};\n";
        assert!(lint_str("crates/kernel/src/lsm.rs", line).is_empty());
        assert_eq!(lint_str("crates/kernel/src/kernel.rs", line).len(), 1);
    }

    #[test]
    fn every_allowlist_fragment_occurs_in_its_file() {
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        for (suffix, fragment, _) in ALLOWLIST {
            let path = crates.join(suffix);
            let text = fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("allowlisted file {}: {e}", path.display()));
            assert!(
                text.contains(fragment),
                "stale allowlist entry: `{fragment}` no longer occurs in {suffix}"
            );
        }
    }

    #[test]
    fn repo_protocol_files_are_currently_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = lint_paths(&default_roots(&root)).expect("lint walk");
        assert!(
            findings.is_empty(),
            "sync-lint must be clean at HEAD:\n{}",
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
