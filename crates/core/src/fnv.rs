//! The crate's one FNV-1a: `answer_digest`, `output_digest`,
//! `config_fingerprint` and the test fingerprints all fold through it.

/// 64-bit FNV-1a state; `.0` is the digest so far.
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds `v` in as its eight little-endian bytes.
    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}
