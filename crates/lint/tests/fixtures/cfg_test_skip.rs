// Fixture: violations confined to test-gated items are exempt from the
// determinism and panic-path rules.
#[cfg(test)]
use std::collections::HashMap;

pub fn library_code() -> u32 {
    0
}

pub struct Counter;

impl Counter {
    pub fn get(&self) -> u32 {
        0
    }

    #[cfg(test)]
    fn scratch_map() -> HashMap<u32, u32> {
        HashMap::new()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn scratch() {
        let mut m = HashMap::new();
        m.insert(1u32, 2u32);
        assert_eq!(m.get(&1).copied().unwrap(), 2);
    }

    #[test]
    #[should_panic]
    fn panics() {
        None::<u32>.unwrap();
    }
}

#[cfg(all(test, debug_assertions))]
mod debug_tests {
    use std::time::Instant;

    fn elapsed() -> u128 {
        Instant::now().elapsed().as_nanos()
    }
}
