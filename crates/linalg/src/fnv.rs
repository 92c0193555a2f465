//! FNV-1a, the workspace's digest of observable behaviour.
//!
//! Campaign binaries, the load generator and the golden-trajectory tests
//! fold every served bit and deterministic counter into one 64-bit value,
//! so a replay that differs anywhere prints a different digest. Words fold
//! in little-endian byte order, strings byte by byte.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a digest.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// The empty digest (the FNV-1a offset basis).
    pub const fn new() -> Self {
        Fnv(OFFSET)
    }

    /// Fold one byte (e.g. a tag that separates record kinds).
    pub fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(PRIME);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    /// Fold a 64-bit word.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold an `f64` by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Fold a string's UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        // Published FNV-1a 64 vectors: "" and "a".
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.str("a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn words_fold_little_endian() {
        let mut word = Fnv::new();
        word.u64(0x0102_0304_0506_0708);
        let mut bytes = Fnv::new();
        bytes.bytes(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(word.finish(), bytes.finish());
        let mut float = Fnv::new();
        float.f64(f64::from_bits(0x0102_0304_0506_0708));
        assert_eq!(float.finish(), word.finish());
    }
}
