//! A tiny deterministic digest for state comparison.
//!
//! The differential co-simulation driver (see `hulkv-fuzz`) compares the
//! architectural state of two interpreter runs — register files, CSRs,
//! whole memories — after every few thousand retires. Hashing keeps those
//! comparisons O(1) in the driver while the digest itself is a single
//! streaming pass over the state. FNV-1a is used because the inputs are
//! trusted simulator state, not adversarial data: what matters here is
//! determinism across platforms and zero dependencies, not collision
//! resistance.
//!
//! Simulated memories are mostly zero (a kernel touches a few KiB of a
//! 512 KiB scratchpad), so [`Fnv64::write`] absorbs zero runs in O(1) per
//! 64-byte chunk or 8-byte word. FNV-1a's step is `state = (state ^ b) *
//! PRIME`; for `b = 0` the XOR is the identity, so `k` zero bytes multiply
//! the state by `PRIME^k` (mod 2^64) — exactly, not approximately, so
//! every digest is bit-identical to the byte-serial definition.

/// Streaming 64-bit FNV-1a hasher.
///
/// # Example
///
/// ```
/// use hulkv_sim::Fnv64;
///
/// let mut a = Fnv64::new();
/// a.write_u64(1).write_u64(2);
/// let mut b = Fnv64::new();
/// b.write_u64(1).write_u64(2);
/// assert_eq!(a.finish(), b.finish());
/// assert_ne!(Fnv64::new().write_u64(3).finish(), a.finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Chunk width of the zero fast paths: wide enough to amortize the test,
/// small enough that a non-zero byte wastes little.
const CHUNK: usize = 64;

/// `FNV_PRIME^k` (wrapping): the state transform of `k` zero bytes.
const fn prime_pow(k: usize) -> u64 {
    let mut p = 1u64;
    let mut i = 0;
    while i < k {
        p = p.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    p
}

const PRIME_POW_WORD: u64 = prime_pow(8);
const PRIME_POW_CHUNK: u64 = prime_pow(CHUNK);

/// Whether every byte of `bytes` is zero.
///
/// An OR-fold over 64-byte chunks, which the compiler vectorizes, with an
/// early exit per chunk; the memory scans (zero-page skipping in snapshots
/// and sparse-storage digests) all go through it.
///
/// # Example
///
/// ```
/// assert!(hulkv_sim::is_zero(&[0; 100]));
/// assert!(!hulkv_sim::is_zero(&[0, 0, 1]));
/// assert!(hulkv_sim::is_zero(&[]));
/// ```
pub fn is_zero(bytes: &[u8]) -> bool {
    let (chunks, tail) = bytes.as_chunks::<CHUNK>();
    chunks.iter().all(chunk_is_zero) && tail.iter().all(|&b| b == 0)
}

/// The fixed-width body of [`is_zero`]: no early exit inside the chunk,
/// so the fold compiles to a few vector ORs.
fn chunk_is_zero(c: &[u8; CHUNK]) -> bool {
    c.iter().fold(0, |acc, &b| acc | b) == 0
}

impl Fnv64 {
    /// Creates a hasher in the standard FNV-1a offset-basis state.
    pub const fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes. All-zero 64-byte chunks and zero 8-byte words
    /// cost one multiply each (see the module docs); other bytes take the
    /// serial FNV-1a step.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        let (chunks, tail) = bytes.as_chunks::<CHUNK>();
        for c in chunks {
            if chunk_is_zero(c) {
                self.state = self.state.wrapping_mul(PRIME_POW_CHUNK);
            } else {
                self.write_words(c);
            }
        }
        self.write_words(tail);
        self
    }

    /// [`Fnv64::write`] for less than a chunk, or a non-zero one.
    fn write_words(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        for w in words {
            if *w == [0; 8] {
                self.state = self.state.wrapping_mul(PRIME_POW_WORD);
            } else {
                self.write_serial(w);
            }
        }
        self.write_serial(tail);
    }

    fn write_serial(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// The digest of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c — the published test vector.
        assert_eq!(Fnv64::new().write(b"a").finish(), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn order_sensitive() {
        let ab = Fnv64::new().write_u64(1).write_u64(2).finish();
        let ba = Fnv64::new().write_u64(2).write_u64(1).finish();
        assert_ne!(ab, ba);
    }

    /// The FNV-1a definition, one byte at a time.
    fn reference(bytes: &[u8]) -> u64 {
        let mut state = FNV_OFFSET;
        for &b in bytes {
            state = (state ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        state
    }

    #[test]
    fn zero_runs_match_byte_serial_reference() {
        let mut rng = crate::SplitMix64::new(0x5EED);
        // A zero run of every length 0..=130 (past two chunks) at every
        // alignment 0..8, framed by random bytes and followed by a random
        // tail of 0..70 bytes so chunk remainders are covered too.
        for run in 0..=130 {
            for align in 0..8 {
                let tail = rng.next_below(70) as usize;
                let mut buf = vec![0u8; align + run + tail];
                rng.fill_bytes(&mut buf[..align]);
                rng.fill_bytes(&mut buf[align + run..]);
                for start in [0, 1, align] {
                    let slice = &buf[start.min(buf.len())..];
                    assert_eq!(
                        Fnv64::new().write(slice).finish(),
                        reference(slice),
                        "run {run} align {align} tail {tail} start {start}"
                    );
                }
            }
        }
    }

    #[test]
    fn chunked_writes_compose() {
        let mut buf = vec![0u8; 300];
        buf[7] = 1;
        buf[150] = 0xFF;
        for split in [0, 1, 63, 64, 65, 128, 299, 300] {
            let (a, b) = buf.split_at(split);
            assert_eq!(
                Fnv64::new().write(a).write(b).finish(),
                reference(&buf),
                "split {split}"
            );
        }
    }

    #[test]
    fn is_zero_edges() {
        assert!(is_zero(&[]));
        // Tail-only inputs (shorter than a chunk).
        assert!(is_zero(&[0; 63]));
        assert!(!is_zero(&[0, 0, 0, 9]));
        // Last byte non-zero, in the chunked body and in the tail.
        for len in [1, 8, 63, 64, 65, 128, 200, 4096] {
            let mut v = vec![0u8; len];
            assert!(is_zero(&v), "{len}");
            v[len - 1] = 0x80;
            assert!(!is_zero(&v), "{len}");
            v[len - 1] = 0;
            v[0] = 1;
            assert!(!is_zero(&v), "{len}");
        }
    }

    #[test]
    fn empty_is_offset_basis() {
        assert_eq!(Fnv64::new().finish(), 0xCBF2_9CE4_8422_2325);
    }
}
