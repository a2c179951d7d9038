// Fixture: properly audited unsafe.
pub fn documented() -> &'static str {
    // SAFETY: the bytes are an ASCII literal, so valid UTF-8.
    unsafe { std::str::from_utf8_unchecked(b"fixture") }
}
