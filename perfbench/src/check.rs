//! Output checks. Every checked output is one attempted operation; a
//! wrong or failed one is one failure, and `error_rate` is their ratio.

/// Attempted and failed operation counts, with the first few failures
/// described for the run's report.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted (each one checked).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub notes: Vec<String>,
}

const MAX_NOTES: usize = 8;

impl Tally {
    /// Count one operation; describe it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < MAX_NOTES {
                self.notes.push(what());
            }
        }
        ok
    }

    /// Count one operation that failed outright (an error return).
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.check(false, what);
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < MAX_NOTES {
                self.notes.push(n);
            }
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
