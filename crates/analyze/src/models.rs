//! Bounded models of the lock-free hot path, for [`crate::explore`].
//!
//! Two models remain; both are hand transcriptions of shipped protocols
//! that the deterministic-schedule executor ([`crate::sched`]) also
//! explores as real code:
//!
//! * [`RcuModel`] — the hazard-pointer `Rcu<T>` from `sack-kernel`'s
//!   `sync` module: readers run the announce/validate protocol, the
//!   writer retires the old version, scans the hazard slots and frees
//!   only unannounced retirees. The checked property is memory safety
//!   (no reader ever acquires a freed version) plus the bounded-graveyard
//!   invariant. Its counterexamples are replayed through the real `Rcu`
//!   by [`crate::sched::conformance`].
//! * [`RcuProfileTableModel`] — the AppArmor `PolicyDb` profile replace
//!   (`Rcu<ProfileTable>`) raced against concurrent hook reads. The
//!   checked property is that a hook never observes a torn profile table
//!   (rules from one snapshot, shared alphabet from another).
//!
//! Each model carries mutation switches that disable one load-bearing
//! ingredient of the real algorithm (the reader's validate loop, the
//! writer's hazard scan, the single-snapshot publish). Exploration must
//! find a violation with any switch on and prove the model with all
//! switches off — that asymmetry is what demonstrates the checker has
//! teeth. The event ring is explored only as shipped code, by the ring
//! scenarios in [`crate::sched::scenarios`].

use crate::interleave::Model;

/// Configuration for [`RcuModel`].
#[derive(Debug, Clone, Copy)]
pub struct RcuConfig {
    /// Number of reader threads (the model gives each its own hazard
    /// slot, mirroring the common case of distinct preferred slots).
    pub readers: usize,
    /// Number of version updates the writer performs.
    pub writes: usize,
    /// Known-bad mutation: readers announce and acquire without
    /// re-validating that the announced pointer is still current.
    pub skip_validation: bool,
    /// Known-bad mutation: the writer frees retired versions without
    /// scanning the hazard slots.
    pub skip_hazard_scan: bool,
}

impl RcuConfig {
    /// The faithful algorithm with `readers` readers and `writes`
    /// updates.
    pub fn correct(readers: usize, writes: usize) -> RcuConfig {
        RcuConfig {
            readers,
            writes,
            skip_validation: false,
            skip_hazard_scan: false,
        }
    }
}

/// Per-reader program counter for [`RcuModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RcuReaderPc {
    /// Load the current version pointer.
    Load,
    /// Store the loaded pointer into the hazard slot.
    Announce,
    /// Reload `current` and compare with the announced pointer.
    Validate,
    /// Comparison failed: re-announce the newly loaded pointer.
    Reannounce,
    /// Take a reference to the announced version (checks liveness).
    Acquire,
    /// Clear the hazard slot.
    Clear,
    /// Finished.
    Done,
}

/// Per-writer program counter for [`RcuModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RcuWriterPc {
    /// Swap in the next version and push the old one onto the graveyard.
    Publish,
    /// Read one hazard slot into the announced snapshot.
    Scan,
    /// Free every retired version absent from the announced snapshot.
    Free,
    /// Finished all writes.
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RcuReader {
    pc: RcuReaderPc,
    /// The version id this reader has loaded / announced.
    p: u8,
}

/// Bounded model of the hazard-pointer `Rcu<T>`.
///
/// Versions are small integers `0..=writes`; version 0 is the initial
/// value and the writer publishes `1, 2, …` in order. `freed` and
/// `announced` are bitmasks over version ids.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RcuModel {
    readers: Vec<RcuReader>,
    writer_pc: RcuWriterPc,
    /// Index of the *next* version to publish (also: writes completed).
    next_version: u8,
    total_writes: u8,
    /// Currently published version id.
    current: u8,
    /// Bitmask of freed version ids.
    freed: u16,
    /// One hazard slot per reader; `None` = empty.
    hazards: Vec<Option<u8>>,
    /// Retired-but-not-freed version ids.
    graveyard: Vec<u8>,
    /// Writer's snapshot of announced versions (bitmask), rebuilt each
    /// scan.
    announced: u16,
    /// Next hazard slot the writer will scan.
    scan_idx: u8,
    skip_validation: bool,
    skip_hazard_scan: bool,
}

impl RcuModel {
    /// Builds the initial state for `config`.
    pub fn new(config: RcuConfig) -> RcuModel {
        assert!(config.writes < 15, "version ids are 4-bit in this model");
        RcuModel {
            readers: vec![
                RcuReader {
                    pc: RcuReaderPc::Load,
                    p: 0,
                };
                config.readers
            ],
            writer_pc: if config.writes == 0 {
                RcuWriterPc::Done
            } else {
                RcuWriterPc::Publish
            },
            next_version: 1,
            total_writes: config.writes as u8,
            current: 0,
            freed: 0,
            hazards: vec![None; config.readers],
            graveyard: Vec::new(),
            announced: 0,
            scan_idx: 0,
            skip_validation: config.skip_validation,
            skip_hazard_scan: config.skip_hazard_scan,
        }
    }

    fn is_freed(&self, version: u8) -> bool {
        self.freed & (1 << version) != 0
    }

    fn writer_step(&mut self) {
        match self.writer_pc {
            RcuWriterPc::Publish => {
                self.graveyard.push(self.current);
                self.current = self.next_version;
                self.announced = 0;
                self.scan_idx = 0;
                self.writer_pc = if self.skip_hazard_scan || self.hazards.is_empty() {
                    RcuWriterPc::Free
                } else {
                    RcuWriterPc::Scan
                };
            }
            RcuWriterPc::Scan => {
                if let Some(v) = self.hazards[self.scan_idx as usize] {
                    self.announced |= 1 << v;
                }
                self.scan_idx += 1;
                if self.scan_idx as usize == self.hazards.len() {
                    self.writer_pc = RcuWriterPc::Free;
                }
            }
            RcuWriterPc::Free => {
                let announced = self.announced;
                let freed = &mut self.freed;
                self.graveyard.retain(|&v| {
                    if announced & (1 << v) != 0 {
                        true
                    } else {
                        *freed |= 1 << v;
                        false
                    }
                });
                self.next_version += 1;
                self.writer_pc = if self.next_version > self.total_writes {
                    RcuWriterPc::Done
                } else {
                    RcuWriterPc::Publish
                };
            }
            RcuWriterPc::Done => unreachable!(),
        }
    }

    fn reader_step(&mut self, i: usize) -> Result<(), String> {
        let reader = self.readers[i];
        match reader.pc {
            RcuReaderPc::Load => {
                self.readers[i].p = self.current;
                self.readers[i].pc = RcuReaderPc::Announce;
            }
            RcuReaderPc::Announce => {
                self.hazards[i] = Some(reader.p);
                self.readers[i].pc = if self.skip_validation {
                    RcuReaderPc::Acquire
                } else {
                    RcuReaderPc::Validate
                };
            }
            RcuReaderPc::Validate => {
                if self.current == reader.p {
                    self.readers[i].pc = RcuReaderPc::Acquire;
                } else {
                    self.readers[i].p = self.current;
                    self.readers[i].pc = RcuReaderPc::Reannounce;
                }
            }
            RcuReaderPc::Reannounce => {
                self.hazards[i] = Some(reader.p);
                self.readers[i].pc = RcuReaderPc::Validate;
            }
            RcuReaderPc::Acquire => {
                if self.is_freed(reader.p) {
                    return Err(format!(
                        "use-after-free: reader {i} acquired version {} after it was freed",
                        reader.p
                    ));
                }
                self.readers[i].pc = RcuReaderPc::Clear;
            }
            RcuReaderPc::Clear => {
                self.hazards[i] = None;
                self.readers[i].pc = RcuReaderPc::Done;
            }
            RcuReaderPc::Done => unreachable!(),
        }
        Ok(())
    }
}

impl Model for RcuModel {
    fn threads(&self) -> usize {
        self.readers.len() + 1
    }

    fn enabled(&self, thread: usize) -> bool {
        if thread < self.readers.len() {
            self.readers[thread].pc != RcuReaderPc::Done
        } else {
            self.writer_pc != RcuWriterPc::Done
        }
    }

    fn step(&mut self, thread: usize) -> Result<(), String> {
        if thread < self.readers.len() {
            self.reader_step(thread)
        } else {
            self.writer_step();
            Ok(())
        }
    }

    fn done(&self) -> bool {
        self.writer_pc == RcuWriterPc::Done
            && self.readers.iter().all(|r| r.pc == RcuReaderPc::Done)
    }

    fn check_invariants(&self) -> Result<(), String> {
        // The reclamation invariant from `sack_kernel::sync`: the
        // graveyard holds at most one entry per hazard slot plus the
        // in-flight retiree of the current update.
        let bound = self.hazards.len() + 1;
        if self.graveyard.len() > bound {
            return Err(format!(
                "graveyard unbounded: {} retired versions with only {} hazard slots",
                self.graveyard.len(),
                self.hazards.len()
            ));
        }
        // The published version must never be freed.
        if self.is_freed(self.current) {
            return Err(format!("current version {} was freed", self.current));
        }
        Ok(())
    }
}

/// Configuration for [`RcuProfileTableModel`].
#[derive(Debug, Clone, Copy)]
pub struct ProfileTableConfig {
    /// Number of hook threads performing one access check each.
    pub readers: usize,
    /// Known-bad mutation: the replace publishes the recompiled profile
    /// rules and the shared alphabet as two separate stores instead of
    /// one `Rcu<ProfileTable>` snapshot — a concurrent hook can evaluate
    /// rules from one version against byte classes from the other.
    pub split_publish: bool,
}

impl ProfileTableConfig {
    /// The faithful algorithm with `readers` hook threads.
    pub fn correct(readers: usize) -> ProfileTableConfig {
        ProfileTableConfig {
            readers,
            split_publish: false,
        }
    }
}

/// One atomic writer action in [`RcuProfileTableModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ReplaceStep {
    /// Publish rules and alphabet together (the real single `Rcu` store).
    Publish,
    /// Publish only the recompiled rules (first half of the torn split).
    PublishRules,
    /// Publish only the shared alphabet (second half of the torn split).
    PublishAlphabet,
}

/// Bounded model of an AppArmor profile replace over `Rcu<ProfileTable>`
/// raced against hook reads.
///
/// The table is a pair `(rules, alphabet)` because a compiled profile is
/// only meaningful against the byte-class alphabet it was compiled with:
/// hooks must observe the pair atomically, which the real implementation
/// guarantees by publishing both inside one `Rcu` snapshot. Each hook
/// thread takes one step, evaluating whatever pair is published at that
/// moment; the writer moves both halves from version 0 to version 1.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RcuProfileTableModel {
    /// Per hook thread: whether its check has run.
    checked: Vec<bool>,
    /// Index of the next writer step in the replace program.
    writer_pc: u8,
    /// Published profile-rules version.
    rules: u8,
    /// Published shared-alphabet version.
    alphabet: u8,
    split_publish: bool,
}

impl RcuProfileTableModel {
    /// Builds the initial state for `config`.
    pub fn new(config: ProfileTableConfig) -> RcuProfileTableModel {
        RcuProfileTableModel {
            checked: vec![false; config.readers],
            writer_pc: 0,
            rules: 0,
            alphabet: 0,
            split_publish: config.split_publish,
        }
    }

    /// The replace program the writer executes, one atomic step per entry.
    fn program(&self) -> &'static [ReplaceStep] {
        if self.split_publish {
            &[ReplaceStep::PublishRules, ReplaceStep::PublishAlphabet]
        } else {
            &[ReplaceStep::Publish]
        }
    }

    fn writer_done(&self) -> bool {
        self.writer_pc as usize >= self.program().len()
    }

    fn reader_step(&mut self, i: usize) -> Result<(), String> {
        self.checked[i] = true;
        // The hook follows one snapshot handle to both the rules and the
        // alphabet; observing different versions means the table was
        // published in pieces.
        if self.rules != self.alphabet {
            return Err(format!(
                "torn profile-table read: reader {i} evaluated rules v{} \
                 against shared alphabet v{}",
                self.rules, self.alphabet
            ));
        }
        Ok(())
    }

    fn writer_step(&mut self) {
        match self.program()[self.writer_pc as usize] {
            ReplaceStep::Publish => {
                self.rules = 1;
                self.alphabet = 1;
            }
            ReplaceStep::PublishRules => self.rules = 1,
            ReplaceStep::PublishAlphabet => self.alphabet = 1,
        }
        self.writer_pc += 1;
    }
}

impl Model for RcuProfileTableModel {
    fn threads(&self) -> usize {
        self.checked.len() + 1
    }

    fn enabled(&self, thread: usize) -> bool {
        if thread < self.checked.len() {
            !self.checked[thread]
        } else {
            !self.writer_done()
        }
    }

    fn step(&mut self, thread: usize) -> Result<(), String> {
        if thread < self.checked.len() {
            self.reader_step(thread)
        } else {
            self.writer_step();
            Ok(())
        }
    }

    fn done(&self) -> bool {
        self.writer_done() && self.checked.iter().all(|&c| c)
    }

    fn check_invariants(&self) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::explore;

    #[test]
    fn rcu_correct_algorithm_is_exhaustively_safe() {
        let stats = explore(&RcuModel::new(RcuConfig::correct(2, 2)), 64).unwrap();
        assert!(stats.complete_schedules > 0);
        assert!(stats.states > 100, "model should be non-trivial");
    }

    #[test]
    fn rcu_skipping_validation_is_caught() {
        let config = RcuConfig {
            skip_validation: true,
            ..RcuConfig::correct(1, 1)
        };
        let violation = explore(&RcuModel::new(config), 64).unwrap_err();
        assert!(violation.message.contains("use-after-free"), "{violation}");
    }

    #[test]
    fn rcu_skipping_the_hazard_scan_is_caught() {
        let config = RcuConfig {
            skip_hazard_scan: true,
            ..RcuConfig::correct(1, 1)
        };
        let violation = explore(&RcuModel::new(config), 64).unwrap_err();
        assert!(violation.message.contains("use-after-free"), "{violation}");
    }

    #[test]
    fn profile_table_correct_replace_is_exhaustively_safe() {
        let model = RcuProfileTableModel::new(ProfileTableConfig::correct(2));
        let stats = explore(&model, 64).unwrap();
        assert!(stats.complete_schedules > 0);
        // Two hook flags times the writer's one-step program: every one
        // of the 2 * 2 * 2 states must be reached.
        assert_eq!(stats.states, 8, "model must reach every state");
    }

    #[test]
    fn profile_table_split_publish_is_caught_as_torn_read() {
        let config = ProfileTableConfig {
            split_publish: true,
            ..ProfileTableConfig::correct(1)
        };
        let violation = explore(&RcuProfileTableModel::new(config), 64).unwrap_err();
        assert!(
            violation.message.contains("torn profile-table read"),
            "{violation}"
        );
    }
}
