//! Clean input for the `arith` rule: every idiom here is the sanctioned
//! replacement for a positive-fixture violation, and none may produce a
//! finding.

pub struct Stats {
    pub accesses: u64,
    pub busy_cycles: u64,
}

impl Stats {
    /// Saturating arithmetic on accounting counters is the fix idiom.
    pub fn bump(&mut self, delta: u64) {
        self.accesses = self.accesses.saturating_add(delta);
        self.busy_cycles = self.busy_cycles.saturating_add(1);
    }

    /// Checked combination.
    pub fn combined(&self) -> u64 {
        self.accesses.saturating_add(self.busy_cycles)
    }

    /// Arithmetic on non-accounting locals stays unflagged.
    pub fn geometry(&self, width: u64, height: u64) -> u64 {
        width * height + width
    }
}

/// Indexed counters use the same idiom, and an accounting name used only
/// as an index leaves a non-counter target unflagged.
pub fn indexed(presented: &mut [u64], slots: &mut [u64], v: usize, cycles: usize, span: u64) {
    presented[v] = presented[v].saturating_add(span);
    slots[cycles] += span;
}
