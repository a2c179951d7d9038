//! Deliberately violating input for the `arith` rule: every function here
//! must produce at least one finding. Kept out of the real lint walk by
//! the `fixtures` directory exclusion. (The rule's cast half is clippy's
//! `cast_possible_truncation`.)

pub struct Stats {
    pub accesses: u64,
    pub busy_cycles: u64,
}

impl Stats {
    /// Unchecked compound assignment on accounting counters.
    pub fn bump(&mut self, delta: u64) {
        self.accesses += delta;
        self.busy_cycles += 1;
    }

    /// Unchecked binary `+` between two accounting counters.
    pub fn combined(&self) -> u64 {
        self.accesses + self.busy_cycles
    }

    /// Unchecked `*` scaling an accounting counter.
    pub fn scaled(&self, procs: u64) -> u64 {
        self.busy_cycles * procs
    }
}

impl Stats {
    /// One unchecked site in each control-flow position: `if` head and
    /// body, `else if`, `else`, `for` body, `while` head and body, a
    /// `match` arm, an `if let` body and a `loop` body.
    pub fn in_control_flow(&mut self, n: u64, steps: &[u64], extra: Option<u64>) {
        if self.accesses + n > 10 {
            self.accesses += 1;
        } else if n > 5 {
            self.busy_cycles += n;
        } else {
            self.busy_cycles += 2;
        }
        for step in steps {
            self.accesses += *step;
        }
        while self.busy_cycles * 2 < n {
            self.busy_cycles += 1;
        }
        match n {
            0 => self.accesses += 3,
            _ => {}
        }
        if let Some(more) = extra {
            self.busy_cycles += more;
        }
        loop {
            self.accesses += 1;
            break;
        }
    }
}
