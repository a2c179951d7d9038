// Fixture: the same constructs, each explicitly expected with a reason.
#[expect(clippy::disallowed_types, reason = "fixture demonstrating the escape hatch")]
use std::collections::HashMap;

pub fn keyed() -> usize {
    #[expect(clippy::disallowed_types, reason = "never iterated, only point lookups")]
    let m: HashMap<u32, u32> = HashMap::new();
    m.len()
}
