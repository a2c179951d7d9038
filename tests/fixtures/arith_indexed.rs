//! Deliberately violating input for the `arith` rule: unchecked compound
//! assignments whose target indexes an accounting counter. Each target
//! ends in `]`, not in the counter's name, so a rule that reads only the
//! identifier right before the operator passes all of them.

pub struct Modules {
    pub presented: Vec<u64>,
    pub accesses: Vec<Vec<u64>>,
}

impl Modules {
    /// A bulk charge to one module's counter.
    pub fn charge(&mut self, v: usize, span: u64) {
        self.presented[v] += span;
    }

    /// A nested index, and an index that is itself an expression.
    pub fn bump(&mut self, p: usize, q: usize, ids: &[usize]) {
        self.accesses[p][q] += 1;
        self.presented[ids[p] % 4] *= 2;
    }

    /// A local counter indexed inside a loop.
    pub fn tally(spans: &[u64]) -> Vec<u64> {
        let mut accesses = vec![0; spans.len()];
        for (i, &span) in spans.iter().enumerate() {
            accesses[i] += span;
        }
        accesses
    }
}
