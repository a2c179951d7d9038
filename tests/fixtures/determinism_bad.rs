// Fixture: determinism violations a simulation crate must not contain.
use std::collections::HashMap;
use std::time::Instant;

pub fn order_sensitive() -> usize {
    let m: HashMap<u32, u32> = HashMap::new();
    let started = Instant::now();
    m.len() + started.elapsed().subsec_nanos() as usize
}

#[cfg(test)]
mod tests {
    // Test code has no exemption: a test that iterates a HashSet can pass
    // or fail by run.
    #[test]
    fn unordered() {
        let s: std::collections::HashSet<u32> = (0..4).collect();
        assert_eq!(s.len(), 4);
    }
}
