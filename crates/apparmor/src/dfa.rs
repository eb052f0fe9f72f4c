//! Unified multi-glob DFA matcher.
//!
//! Real AppArmor compiles every path rule in a profile into one DFA so a
//! single pass over the path answers "which rules match" regardless of how
//! many rules the profile holds. This module does the same for our glob
//! dialect: [`DfaBuilder`] collects rule globs (each tagged with a caller
//! chosen `u32`), builds a combined position NFA re-using the token
//! semantics of [`crate::glob`], determinizes it by subset construction
//! over a compressed byte alphabet, and minimizes the result with Moore's
//! partition refinement. Accepting states are annotated at *build time* by
//! folding the set of matching rule tags into a caller-defined annotation
//! (e.g. a [`crate::matcher::RuleDecision`] union, or a first-match type
//! label for TE), so evaluation is a single O(|path|) table walk with the
//! rule resolution already baked in.
//!
//! The build is two steps: [`DfaBuilder::determinize`] runs the subset
//! construction once and annotates each state with its accepting tag set,
//! and [`Dfa::relabel`] folds those sets and minimizes. A caller that needs
//! several machines over the same globs (a policy's lints and its per-state
//! tables) determinizes once and relabels per machine.
//!
//! The annotation fold runs during construction only; [`Dfa::eval`] never
//! allocates and touches one `u32` table cell per input byte.

use std::collections::HashMap;
use std::hash::Hash;
use std::rc::Rc;
use std::sync::Arc;

use crate::glob::{token_matches, Glob, Token};

/// Sentinel transition target: no live NFA position remains.
const DEAD: u32 = u32::MAX;

/// A byte-equivalence partition of the 256-byte alphabet.
///
/// Two bytes are interchangeable when every distinct consuming token (and
/// the `/` test the wildcards use) treats them identically; transition
/// tables then need one column per class instead of 256. An alphabet built
/// from a *superset* of a machine's tokens is merely finer than necessary —
/// refinement preserves the transition relation — so one table can be
/// shared across every profile of a namespace and across every
/// [`crate::dfa::Dfa`] built from it (real AppArmor shares `equiv` tables
/// the same way). Sharing via `Arc` also makes the shared-alphabet
/// invariant checkable with `Arc::ptr_eq`.
#[derive(Debug, Clone)]
pub struct Alphabet {
    /// Distinct discriminating tokens the partition was derived from
    /// (`**` excluded — it matches every byte and never discriminates).
    discr: Vec<Token>,
    /// byte → equivalence class.
    classes: Box<[u16; 256]>,
    class_count: usize,
}

impl Alphabet {
    /// Builds the partition for a set of discriminating tokens.
    fn from_tokens(discr: Vec<Token>) -> Alphabet {
        let mut sig_to_class: HashMap<Vec<bool>, u16> = HashMap::new();
        let mut classes = Box::new([0u16; 256]);
        for b in 0..=255u8 {
            let mut sig = Vec::with_capacity(discr.len() + 1);
            sig.push(b == b'/');
            for tok in &discr {
                sig.push(match tok {
                    Token::Star => b != b'/',
                    other => token_matches(other, b),
                });
            }
            let next = sig_to_class.len() as u16;
            classes[b as usize] = *sig_to_class.entry(sig).or_insert(next);
        }
        let class_count = sig_to_class.len();
        Alphabet {
            discr,
            classes,
            class_count,
        }
    }

    /// Collects the distinct discriminating tokens of `globs` into `out`.
    fn collect_tokens<'a>(globs: impl IntoIterator<Item = &'a Glob>, out: &mut Vec<Token>) {
        for glob in globs {
            for pat in glob.alternates() {
                for tok in &pat.tokens {
                    if !matches!(tok, Token::DoubleStar) && !out.contains(tok) {
                        out.push(tok.clone());
                    }
                }
            }
        }
    }

    /// Builds the shared alphabet for a set of globs (e.g. every path rule
    /// of every profile in a namespace).
    pub fn for_globs<'a>(globs: impl IntoIterator<Item = &'a Glob>) -> Alphabet {
        let mut discr = Vec::new();
        Self::collect_tokens(globs, &mut discr);
        Alphabet::from_tokens(discr)
    }

    /// The empty-token alphabet: `/` vs everything else.
    pub fn minimal() -> Alphabet {
        Alphabet::from_tokens(Vec::new())
    }

    /// Number of equivalence classes.
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// The equivalence class of `byte`.
    pub fn class_of(&self, byte: u8) -> u16 {
        self.classes[byte as usize]
    }

    /// True if compiling `globs` against this alphabet would need a finer
    /// partition — i.e. some new token distinguishes two bytes currently in
    /// the same class. When this returns `false` the existing table can be
    /// reused as-is (the common case for rule edits that only recombine
    /// bytes the table already separates).
    pub fn would_split<'a>(&self, globs: impl IntoIterator<Item = &'a Glob>) -> bool {
        let mut candidates = Vec::new();
        Self::collect_tokens(globs, &mut candidates);
        self.tokens_would_split(&candidates)
    }

    /// Core of [`Alphabet::would_split`]: do any of `candidates` separate
    /// two bytes the partition currently merges?
    fn tokens_would_split(&self, candidates: &[Token]) -> bool {
        let candidates: Vec<&Token> = candidates
            .iter()
            .filter(|tok| !self.discr.contains(tok))
            .collect();
        if candidates.is_empty() {
            return false;
        }
        // A representative byte per class, then check every byte agrees
        // with its representative under every candidate token.
        let mut rep: Vec<Option<u8>> = vec![None; self.class_count];
        for b in 0..=255u8 {
            let class = self.classes[b as usize] as usize;
            match rep[class] {
                None => rep[class] = Some(b),
                Some(r) => {
                    for tok in &candidates {
                        let matches = |b| match tok {
                            Token::Star => b != b'/',
                            other => token_matches(other, b),
                        };
                        if matches(b) != matches(r) {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }
}

/// Size statistics for a compiled [`Dfa`], surfaced by `sack-analyze`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DfaStats {
    /// Number of (minimized) DFA states.
    pub states: usize,
    /// Number of live (non-dead) transitions in the table.
    pub transitions: usize,
    /// Number of byte-equivalence classes the alphabet compressed to.
    pub classes: usize,
}

/// Accumulates tagged globs and compiles them into a single [`Dfa`].
#[derive(Debug, Default)]
pub struct DfaBuilder {
    /// Flattened NFA positions; `Some(tok)` consumes input, `None` accepts.
    positions: Vec<Option<Token>>,
    /// The tag of the glob that owns each position.
    tag_of: Vec<u32>,
    /// First position of every brace-alternate.
    starts: Vec<u32>,
}

impl DfaBuilder {
    /// Creates an empty builder.
    pub fn new() -> DfaBuilder {
        DfaBuilder::default()
    }

    /// Adds one glob under `tag`. Tags need not be unique; every accepting
    /// position remembers its tag so the build-time fold can resolve
    /// overlapping rules.
    pub fn add_glob(&mut self, glob: &Glob, tag: u32) {
        for pat in glob.alternates() {
            self.starts.push(self.positions.len() as u32);
            for tok in &pat.tokens {
                self.positions.push(Some(tok.clone()));
                self.tag_of.push(tag);
            }
            self.positions.push(None);
            self.tag_of.push(tag);
        }
    }

    /// True if no globs have been added.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Epsilon closure: a wildcard position may be skipped, so position `i`
    /// implies `i + 1`. Keeps the set sorted and deduplicated (the set is
    /// the subset-construction hash key).
    fn close(&self, set: &mut Vec<u32>) {
        let mut i = 0;
        while i < set.len() {
            let p = set[i] as usize;
            if matches!(
                self.positions[p],
                Some(Token::Star) | Some(Token::DoubleStar)
            ) {
                // Duplicates are dropped by the dedup below.
                set.push(set[i] + 1);
            }
            i += 1;
        }
        set.sort_unstable();
        set.dedup();
    }

    /// One NFA step on `byte`: wildcards self-loop (a `*` only off `/`),
    /// consuming tokens advance — exactly the transition relation of
    /// `glob::Nfa::step`. Writes the closed successor set into `out`.
    fn step(&self, set: &[u32], byte: u8, out: &mut Vec<u32>) {
        out.clear();
        for &p in set {
            match &self.positions[p as usize] {
                None => {}
                Some(Token::Star) if byte != b'/' => out.push(p),
                Some(Token::Star) => {}
                Some(Token::DoubleStar) => out.push(p),
                Some(tok) if token_matches(tok, byte) => out.push(p + 1),
                Some(_) => {}
            }
        }
        self.close(out);
    }

    /// Sorted, deduplicated tags of the accepting positions in `set`.
    fn accepting_tags(&self, set: &[u32]) -> Vec<u32> {
        let mut tags: Vec<u32> = set
            .iter()
            .filter(|&&p| self.positions[p as usize].is_none())
            .map(|&p| self.tag_of[p as usize])
            .collect();
        tags.sort_unstable();
        tags.dedup();
        tags
    }

    /// The distinct discriminating tokens of the accumulated globs.
    fn discriminating_tokens(&self) -> Vec<Token> {
        let mut discr: Vec<Token> = Vec::new();
        for tok in self.positions.iter().flatten() {
            // `**` matches every byte; it never discriminates.
            if !matches!(tok, Token::DoubleStar) && !discr.contains(tok) {
                discr.push(tok.clone());
            }
        }
        discr
    }

    /// The byte-equivalence alphabet induced by the accumulated globs
    /// alone. [`DfaBuilder::build`] uses this; multi-machine callers build
    /// a shared [`Alphabet`] over all their globs instead.
    pub fn alphabet(&self) -> Alphabet {
        Alphabet::from_tokens(self.discriminating_tokens())
    }

    /// Determinizes and minimizes the accumulated globs. `fold` maps the
    /// set of rule tags accepting in a state to that state's annotation;
    /// `fold(&[])` is the annotation of non-accepting (and dead) states.
    pub fn build<A, F>(&self, fold: F) -> Dfa<A>
    where
        A: Clone + Eq + Hash,
        F: Fn(&[u32]) -> A,
    {
        self.build_with_alphabet(&Arc::new(self.alphabet()), fold)
    }

    /// [`DfaBuilder::build`] against a caller-supplied shared alphabet:
    /// [`DfaBuilder::determinize`] followed by [`Dfa::relabel`].
    ///
    /// The alphabet must refine this machine's own partition — i.e. built
    /// from a superset of its globs, or from a partition that
    /// [`Alphabet::would_split`] reports as not split by them. A finer
    /// partition only adds redundant columns; it never changes the language
    /// or the annotations.
    pub fn build_with_alphabet<A, F>(&self, alphabet: &Arc<Alphabet>, fold: F) -> Dfa<A>
    where
        A: Clone + Eq + Hash,
        F: Fn(&[u32]) -> A,
    {
        self.determinize(alphabet).relabel(fold)
    }

    /// The subset construction alone: an unminimized DFA whose annotation
    /// is each state's sorted, deduplicated set of accepting tags.
    ///
    /// One determinization can serve many machines over the same globs:
    /// each [`Dfa::relabel`] folds the tag sets into its own annotation and
    /// minimizes, which is how one policy load derives its lints and every
    /// situation state's table from a single construction. The alphabet
    /// requirement is that of [`DfaBuilder::build_with_alphabet`].
    pub fn determinize(&self, alphabet: &Arc<Alphabet>) -> Dfa<Vec<u32>> {
        debug_assert!(
            !alphabet.tokens_would_split(&self.discriminating_tokens()),
            "shared alphabet is coarser than this machine's tokens require"
        );
        let class_count = alphabet.class_count;
        // One representative byte per class, for stepping the NFA.
        let mut rep = vec![0u8; class_count];
        for b in (0..=255u8).rev() {
            rep[alphabet.classes[b as usize] as usize] = b;
        }

        let mut start_set: Vec<u32> = self.starts.clone();
        self.close(&mut start_set);

        // Each position set is stored once, shared by the BFS queue and
        // the hash key.
        let start_set: Rc<[u32]> = start_set.into();
        let mut index: HashMap<Rc<[u32]>, u32> = HashMap::new();
        let mut sets: Vec<Rc<[u32]>> = vec![Rc::clone(&start_set)];
        index.insert(start_set, 0);

        let mut table: Vec<u32> = Vec::new();
        let mut accepts: Vec<Vec<u32>> = Vec::new();

        let mut out: Vec<u32> = Vec::new();
        let mut next = 0usize;
        while next < sets.len() {
            let set = Rc::clone(&sets[next]);
            accepts.push(self.accepting_tags(&set));
            for &rep_byte in &rep {
                self.step(&set, rep_byte, &mut out);
                if out.is_empty() {
                    table.push(DEAD);
                    continue;
                }
                let id = match index.get(out.as_slice()) {
                    Some(&id) => id,
                    None => {
                        let id = sets.len() as u32;
                        let key: Rc<[u32]> = out.as_slice().into();
                        index.insert(Rc::clone(&key), id);
                        sets.push(key);
                        id
                    }
                };
                table.push(id);
            }
            next += 1;
        }

        Dfa {
            alphabet: Arc::clone(alphabet),
            table,
            accepts,
            start: 0,
            empty: Vec::new(),
        }
    }
}

impl Dfa<Vec<u32>> {
    /// Folds every state's accepting tag set into an annotation and
    /// minimizes the result; `fold(&[])` annotates the dead state. The tag
    /// automaton is only read, so one [`DfaBuilder::determinize`] can be
    /// relabelled many times (and from several threads).
    pub fn relabel<B, F>(&self, fold: F) -> Dfa<B>
    where
        B: Clone + Eq + Hash,
        F: Fn(&[u32]) -> B,
    {
        let accepts: Vec<B> = self.accepts.iter().map(|tags| fold(tags)).collect();
        minimize(&self.alphabet, &self.table, &accepts, self.start, fold(&[]))
    }
}

/// Moore partition refinement: start from blocks of annotation-equal
/// states, split until transition structure agrees, then rebuild the table
/// over blocks. Language and annotations are preserved exactly. Blocks are
/// numbered in order of their first member, so relabelling two subset
/// constructions with the same annotated language yields identical tables.
fn minimize<A: Clone + Eq + Hash>(
    alphabet: &Arc<Alphabet>,
    src_table: &[u32],
    src_accepts: &[A],
    start: u32,
    empty: A,
) -> Dfa<A> {
    let n = src_accepts.len();
    let c = alphabet.class_count;

    let mut block: Vec<u32> = Vec::with_capacity(n);
    let mut annot_ids: HashMap<&A, u32> = HashMap::new();
    for a in src_accepts {
        let next = annot_ids.len() as u32;
        block.push(*annot_ids.entry(a).or_insert(next));
    }
    let mut block_count = annot_ids.len();

    loop {
        let mut sig_ids: HashMap<(u32, Vec<u32>), u32> = HashMap::new();
        let mut next_block = Vec::with_capacity(n);
        for s in 0..n {
            let sig: Vec<u32> = src_table[s * c..(s + 1) * c]
                .iter()
                .map(|&t| if t == DEAD { DEAD } else { block[t as usize] })
                .collect();
            let next = sig_ids.len() as u32;
            next_block.push(*sig_ids.entry((block[s], sig)).or_insert(next));
        }
        let next_count = sig_ids.len();
        block = next_block;
        if next_count == block_count {
            break;
        }
        block_count = next_count;
    }

    let mut table = vec![DEAD; block_count * c];
    let mut accepts: Vec<Option<A>> = vec![None; block_count];
    for s in 0..n {
        let b = block[s] as usize;
        if accepts[b].is_none() {
            accepts[b] = Some(src_accepts[s].clone());
            for cl in 0..c {
                let t = src_table[s * c + cl];
                table[b * c + cl] = if t == DEAD { DEAD } else { block[t as usize] };
            }
        }
    }

    Dfa {
        alphabet: Arc::clone(alphabet),
        table,
        accepts: accepts
            .into_iter()
            .map(|a| a.expect("block member"))
            .collect(),
        start: block[start as usize],
        empty,
    }
}

/// A compiled DFA with per-state annotations of type `A`: minimized when
/// built or relabelled, unminimized (tag sets) straight out of
/// [`DfaBuilder::determinize`].
///
/// Evaluation walks one table cell per input byte; the annotation of the
/// final state is the pre-resolved answer for every path reaching it.
#[derive(Debug, Clone)]
pub struct Dfa<A> {
    /// The (possibly shared) byte-equivalence partition.
    alphabet: Arc<Alphabet>,
    /// `table[state * class_count + class]` → next state or [`DEAD`].
    table: Vec<u32>,
    /// Per-state annotation (`fold` of the accepting rule tags).
    accepts: Vec<A>,
    start: u32,
    /// Annotation of the dead state — `fold(&[])`.
    empty: A,
}

impl<A> Dfa<A> {
    /// Walks the table over `path` and returns the reached state's
    /// annotation; falling off the table yields the no-match annotation.
    pub fn eval(&self, path: &str) -> &A {
        let mut state = self.start as usize;
        let class_count = self.alphabet.class_count;
        for &b in path.as_bytes() {
            let class = self.alphabet.classes[b as usize] as usize;
            let next = self.table[state * class_count + class];
            if next == DEAD {
                return &self.empty;
            }
            state = next as usize;
        }
        &self.accepts[state]
    }

    /// The byte-class alphabet this machine was compiled against.
    pub fn alphabet(&self) -> &Arc<Alphabet> {
        &self.alphabet
    }

    /// The no-match annotation (`fold(&[])`).
    pub fn empty_annotation(&self) -> &A {
        &self.empty
    }

    /// Iterates over every reachable state's annotation. With a fold that
    /// preserves the tag sets this turns language questions into set
    /// questions: glob `b` is *covered* by glob `a` iff every annotation
    /// containing `b`'s tag also contains `a`'s, and two globs *overlap*
    /// iff some annotation contains both tags.
    pub fn annotations(&self) -> impl Iterator<Item = &A> {
        self.accepts.iter()
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.accepts.len()
    }

    /// Number of live transitions in the table.
    pub fn transition_count(&self) -> usize {
        self.table.iter().filter(|&&t| t != DEAD).count()
    }

    /// Size statistics for diagnostics.
    pub fn stats(&self) -> DfaStats {
        DfaStats {
            states: self.state_count(),
            transitions: self.transition_count(),
            classes: self.alphabet.class_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(pat: &str) -> Dfa<bool> {
        let mut b = DfaBuilder::new();
        b.add_glob(&Glob::compile(pat).unwrap(), 0);
        b.build(|tags| !tags.is_empty())
    }

    #[test]
    fn literal_paths() {
        let dfa = single("/dev/car/door0");
        assert!(dfa.eval("/dev/car/door0"));
        assert!(!dfa.eval("/dev/car/door1"));
        assert!(!dfa.eval("/dev/car/door0/x"));
        assert!(!dfa.eval("/dev/car/door"));
    }

    #[test]
    fn star_does_not_cross_slash() {
        let dfa = single("/dev/car/*");
        assert!(dfa.eval("/dev/car/door0"));
        assert!(!dfa.eval("/dev/car/sub/door0"));
        assert!(dfa.eval("/dev/car/"));
    }

    #[test]
    fn double_star_crosses_slash() {
        let dfa = single("/dev/**");
        assert!(dfa.eval("/dev/car/sub/door0"));
        assert!(dfa.eval("/dev/"));
        assert!(!dfa.eval("/sys/dev/"));
    }

    #[test]
    fn classes_and_braces() {
        let dfa = single("/dev/{door,window}[0-3]");
        assert!(dfa.eval("/dev/door2"));
        assert!(dfa.eval("/dev/window0"));
        assert!(!dfa.eval("/dev/door4"));
        assert!(!dfa.eval("/dev/hatch1"));
    }

    #[test]
    fn agrees_with_glob_matches_on_a_corpus() {
        let pats = [
            "/a/*", "/a/**", "/a/?", "/a/[bc]d", "/a/[^b]*", "/{a,b}/c", "/a/b\\*", "/***",
            "/a*b/c", "/**/",
        ];
        let texts = [
            "", "/", "/a", "/a/", "/a/b", "/a/bd", "/a/cd", "/a/dd", "/a/b/c", "/b/c", "/a/b*",
            "/a/xb/c", "/axb/c", "/a/a", "/ab", "/a/b/", "/a//",
        ];
        for pat in pats {
            let glob = Glob::compile(pat).unwrap();
            let mut b = DfaBuilder::new();
            b.add_glob(&glob, 7);
            let dfa = b.build(|t| !t.is_empty());
            for text in texts {
                assert_eq!(
                    *dfa.eval(text),
                    glob.matches(text),
                    "pattern `{pat}` text `{text}`"
                );
            }
        }
    }

    #[test]
    fn tags_fold_over_all_matching_rules() {
        let mut b = DfaBuilder::new();
        b.add_glob(&Glob::compile("/dev/**").unwrap(), 1);
        b.add_glob(&Glob::compile("/dev/door*").unwrap(), 2);
        b.add_glob(&Glob::compile("/sys/*").unwrap(), 4);
        let dfa = b.build(|tags| tags.iter().sum::<u32>());
        assert_eq!(*dfa.eval("/dev/door0"), 3);
        assert_eq!(*dfa.eval("/dev/audio"), 1);
        assert_eq!(*dfa.eval("/sys/kernel"), 4);
        assert_eq!(*dfa.eval("/proc/1"), 0);
        assert_eq!(*dfa.empty_annotation(), 0);
    }

    #[test]
    fn one_determinization_serves_every_relabelling() {
        let globs = ["/dev/**", "/dev/door*", "/sys/*", "/dev/door0"];
        let mut all = DfaBuilder::new();
        for (tag, pat) in globs.iter().enumerate() {
            all.add_glob(&Glob::compile(pat).unwrap(), tag as u32);
        }
        let alphabet = Arc::new(all.alphabet());
        let index = all.determinize(&alphabet);
        assert!(Arc::ptr_eq(index.alphabet(), &alphabet));
        // Each glob alone, read off the shared tag automaton, decides as
        // its private build does.
        for (tag, pat) in globs.iter().enumerate() {
            let tag = tag as u32;
            let shared = index.relabel(|tags| tags.contains(&tag));
            assert!(shared.state_count() <= index.state_count());
            let mut solo = DfaBuilder::new();
            solo.add_glob(&Glob::compile(pat).unwrap(), 0);
            let solo = solo.build(|tags| !tags.is_empty());
            for text in [
                "/dev/door0",
                "/dev/door1",
                "/dev/x/y",
                "/sys/a",
                "/sys/a/b",
                "",
            ] {
                assert_eq!(shared.eval(text), solo.eval(text), "`{pat}` on `{text}`");
            }
        }
        // The tag sets themselves are the determinization's annotation.
        assert_eq!(*index.eval("/dev/door0"), vec![0, 1, 3]);
        assert!(index.eval("/proc").is_empty());
        // `build` is `determinize` followed by `relabel`.
        let sum = |tags: &[u32]| tags.iter().sum::<u32>();
        assert_eq!(
            format!("{:?}", all.build_with_alphabet(&alphabet, sum)),
            format!("{:?}", index.relabel(sum))
        );
    }

    #[test]
    fn empty_builder_matches_nothing() {
        let b = DfaBuilder::new();
        let dfa = b.build(|t| !t.is_empty());
        assert!(!dfa.eval("/anything"));
        assert!(!dfa.eval(""));
        assert_eq!(dfa.state_count(), 1);
    }

    #[test]
    fn shared_alphabet_preserves_language() {
        // One union alphabet over both machines' globs; each machine built
        // against it must decide exactly as its privately-compiled twin.
        let a = Glob::compile("/dev/car/door[0-3]").unwrap();
        let b = Glob::compile("/sys/{kernel,fs}/**").unwrap();
        let shared = Arc::new(Alphabet::for_globs([&a, &b]));
        for glob in [&a, &b] {
            let mut builder = DfaBuilder::new();
            builder.add_glob(glob, 0);
            let shared_dfa = builder.build_with_alphabet(&shared, |t| !t.is_empty());
            let solo_dfa = builder.build(|t| !t.is_empty());
            assert!(Arc::ptr_eq(shared_dfa.alphabet(), &shared));
            for text in [
                "/dev/car/door0",
                "/dev/car/door4",
                "/sys/kernel/x/y",
                "/sys/fs/",
                "/sys/other",
                "",
            ] {
                assert_eq!(shared_dfa.eval(text), solo_dfa.eval(text), "text `{text}`");
            }
        }
    }

    #[test]
    fn would_split_detects_new_discriminating_bytes() {
        let base = Glob::compile("/dev/car/*").unwrap();
        let alphabet = Alphabet::for_globs([&base]);
        // Same byte vocabulary: no split needed.
        let same = Glob::compile("/dev/rac/*").unwrap();
        assert!(!alphabet.would_split([&same]));
        // `**` never discriminates.
        let doublestar = Glob::compile("/dev/**").unwrap();
        assert!(!alphabet.would_split([&doublestar]));
        // A byte the base never mentions lives in the catch-all class and
        // must split it.
        let novel = Glob::compile("/dev/ca%").unwrap();
        assert!(alphabet.would_split([&novel]));
        // And after rebuilding with it, no further split is needed.
        let rebuilt = Alphabet::for_globs([&base, &novel]);
        assert!(!rebuilt.would_split([&novel]));
        assert!(rebuilt.class_count() > alphabet.class_count());
    }

    #[test]
    fn minimal_alphabet_splits_slash_only() {
        let minimal = Alphabet::minimal();
        assert_eq!(minimal.class_count(), 2);
        assert_ne!(minimal.class_of(b'/'), minimal.class_of(b'a'));
        assert_eq!(minimal.class_of(b'a'), minimal.class_of(b'z'));
    }

    #[test]
    fn minimization_merges_equivalent_suffixes() {
        // Both arms end in the same `/s/**` tail; the minimized DFA must
        // share it rather than duplicating per rule.
        let mut merged = DfaBuilder::new();
        merged.add_glob(&Glob::compile("/a/s/**").unwrap(), 0);
        merged.add_glob(&Glob::compile("/b/s/**").unwrap(), 0);
        let merged = merged.build(|t| !t.is_empty());

        let mut solo = DfaBuilder::new();
        solo.add_glob(&Glob::compile("/a/s/**").unwrap(), 0);
        let solo = solo.build(|t| !t.is_empty());

        // The merged machine only pays one extra branch state, not a
        // duplicated suffix chain.
        assert!(merged.state_count() <= solo.state_count() + 1);
        assert!(merged.eval("/a/s/x/y"));
        assert!(merged.eval("/b/s/x"));
        assert!(!merged.eval("/c/s/x"));
    }
}
