// Fixture: panic paths confined to test-gated items are exempt from the
// panic-path lints (`allow-{unwrap,expect}-in-tests` in clippy.toml).
pub fn library_code(v: &[u32]) -> u32 {
    v.first().copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    fn first(v: &[u32]) -> u32 {
        *v.first().expect("non-empty")
    }

    #[test]
    fn scratch() {
        let m: BTreeMap<u32, u32> = [(1, 2)].into_iter().collect();
        assert_eq!(m.get(&1).copied().unwrap(), 2);
        assert_eq!(super::library_code(&[3]), first(&[3]));
    }
}
