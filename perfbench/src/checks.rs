//! Operation accounting: every checked call is an attempted operation, and
//! it fails when its own check fails or when its simulated outcome differs
//! from the first time the same operation ran in the process.

use std::collections::BTreeMap;

/// Identity of an operation within a workload: a tag and an index, e.g.
/// `("restore", 7)` for the restore of checkpoint 7.
pub type OpKey = (&'static str, u64);

/// The outcome of one operation, recorded during a rep and checked after
/// the rep's timing has stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Obs {
    /// Which operation.
    pub key: OpKey,
    /// Whether the call succeeded and its own check (`verified`, digest
    /// equality) held.
    pub ok: bool,
    /// A deterministic fingerprint of the simulated outcome: cycles, a
    /// state digest or a byte count.
    pub value: u64,
}

impl Obs {
    /// A checked outcome.
    pub fn new(key: OpKey, ok: bool, value: u64) -> Self {
        Obs { key, ok, value }
    }

    /// A call that returned an error.
    pub fn error(key: OpKey) -> Self {
        Obs {
            key,
            ok: false,
            value: 0,
        }
    }
}

/// Counts attempted and failed operations across every rep of a process.
#[derive(Debug, Default)]
pub struct Checker {
    reference: BTreeMap<OpKey, u64>,
    attempted: u64,
    failed: u64,
    first_failures: Vec<String>,
}

/// Failures described in full; later ones are only counted.
const DESCRIBED_FAILURES: usize = 8;

impl Checker {
    /// An empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accounts a batch of outcomes. The first outcome seen for a key
    /// becomes its reference; a later one that differs counts as failed.
    pub fn record(&mut self, batch: &[Obs]) {
        for o in batch {
            self.attempted += 1;
            let reference = *self.reference.entry(o.key).or_insert(o.value);
            let why = if !o.ok {
                "check failed"
            } else if reference != o.value {
                "outcome differs from the first run"
            } else {
                continue;
            };
            self.failed += 1;
            if self.first_failures.len() < DESCRIBED_FAILURES {
                self.first_failures.push(format!(
                    "{}[{}]: {why} (got {:#x}, first {:#x})",
                    o.key.0, o.key.1, o.value, reference
                ));
            }
        }
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Descriptions of the first few failures.
    pub fn first_failures(&self) -> &[String] {
        &self.first_failures
    }

    /// A digest of every reference outcome, to compare runs of the same
    /// seed (an untraced and a traced one) across processes.
    pub fn fingerprint(&self) -> u64 {
        let mut h = hulkv_sim::Fnv64::new();
        for (&(tag, index), &value) in &self.reference {
            h.write(tag.as_bytes()).write_u64(index).write_u64(value);
        }
        h.finish()
    }
}
