//! Secret material from the operating system's entropy pool.
//!
//! API keys, password salts, the session secret and login nonces must be
//! unpredictable for §5.4's authentication to mean anything, so every
//! one of them is read from `/dev/urandom` (the kernel CSPRNG, which
//! never blocks once seeded at boot). A failed read is an error, never a
//! silently zeroed buffer.

use std::fs::File;
use std::io::Read;
use std::path::Path;

/// The kernel's non-blocking CSPRNG device.
const SOURCE: &str = "/dev/urandom";

/// Fills `buf` with exactly `buf.len()` bytes read from `source`; a
/// missing device or a short read is an error.
fn fill_from(source: &Path, buf: &mut [u8]) -> std::io::Result<()> {
    File::open(source)?.read_exact(buf)
}

/// `N` bytes of OS entropy for a secret.
///
/// # Panics
///
/// When the entropy source cannot be read: a server that cannot mint
/// unpredictable secrets must not mint predictable ones instead.
pub(crate) fn os_random<const N: usize>() -> [u8; N] {
    let mut buf = [0u8; N];
    if let Err(e) = fill_from(Path::new(SOURCE), &mut buf) {
        panic!("entropy source {SOURCE} unreadable: {e}");
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ApiKey;
    use std::collections::HashSet;

    #[test]
    fn generated_keys_are_distinct() {
        let keys: HashSet<String> = (0..1_000).map(|_| ApiKey::generate().to_hex()).collect();
        assert_eq!(keys.len(), 1_000);
    }

    #[test]
    fn failing_entropy_read_is_an_error_not_a_zero_buffer() {
        let mut buf = [0u8; 32];
        assert!(fill_from(Path::new("/nonexistent/entropy"), &mut buf).is_err());
        // An exhausted source (EOF before the buffer fills) is a short
        // read, also an error.
        assert!(fill_from(Path::new("/dev/null"), &mut buf).is_err());
    }

    #[test]
    fn reads_fill_the_whole_buffer() {
        let a: [u8; 32] = os_random();
        let b: [u8; 32] = os_random();
        assert_ne!(a, b);
        assert_ne!(a, [0u8; 32]);
    }
}
