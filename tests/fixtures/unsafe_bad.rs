// Fixture: unsafe without an adjacent SAFETY comment.
pub fn undocumented() -> &'static str {
    unsafe { std::str::from_utf8_unchecked(b"fixture") }
}
