// Fixture: panic-path opt-outs with written-down invariants.
#[expect(clippy::unwrap_used, reason = "caller checked is_some() one frame up")]
pub fn justified(v: Option<u32>) -> u32 {
    v.unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap_freely() {
        assert_eq!("1".parse::<u32>().unwrap(), 1);
    }
}
