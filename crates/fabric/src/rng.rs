//! Deterministic random-number streams.
//!
//! Every stochastic element of the fabric (network jitter, failure plans,
//! workload generators) draws from a [`SimRng`] derived from a single master
//! seed, so an entire multi-site experiment replays bit-identically from a
//! seed. Component streams are *forked* from the master stream by label so
//! that adding a new consumer does not perturb the draws seen by existing
//! ones.
//!
//! The generator is a self-contained ChaCha8 keystream (the same core the
//! previous `rand_chacha` dependency provided), so the workspace builds
//! hermetically offline with identical statistical properties.

/// Number of ChaCha double-rounds (ChaCha8 = 4 double rounds).
const DOUBLE_ROUNDS: usize = 4;

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// SplitMix64 step — used to expand a 64-bit seed into the 256-bit key.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random stream (ChaCha8, seedable, forkable).
#[derive(Clone, Debug)]
pub struct SimRng {
    /// The 64-bit seed this stream was created from (fork mixing input).
    seed: u64,
    /// 256-bit ChaCha key expanded from the seed.
    key: [u32; 8],
    /// Block counter.
    counter: u64,
    /// Current keystream block.
    block: [u32; 16],
    /// Next unread word index in `block`; 16 = exhausted.
    cursor: usize,
}

impl SimRng {
    /// Create the master stream from an experiment seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut key = [0u32; 8];
        for pair in key.chunks_mut(2) {
            let w = splitmix64(&mut sm);
            pair[0] = w as u32;
            pair[1] = (w >> 32) as u32;
        }
        SimRng {
            seed,
            key,
            counter: 0,
            block: [0; 16],
            cursor: 16,
        }
    }

    /// Derive an independent child stream for a named component.
    ///
    /// The child seed mixes the parent seed with a stable FNV-1a hash of the
    /// label, so `fork("network")` yields the same stream regardless of how
    /// many other forks were taken before it.
    pub fn fork(&self, label: &str) -> SimRng {
        let h = crate::store::fnv1a(label.as_bytes());
        SimRng::from_seed(self.seed ^ h.rotate_left(17))
    }

    fn refill(&mut self) {
        let mut state = [
            0x6170_7865,
            0x3320_646e,
            0x7962_2d32,
            0x6b20_6574,
            self.key[0],
            self.key[1],
            self.key[2],
            self.key[3],
            self.key[4],
            self.key[5],
            self.key[6],
            self.key[7],
            self.counter as u32,
            (self.counter >> 32) as u32,
            0,
            0,
        ];
        let input = state;
        for _ in 0..DOUBLE_ROUNDS {
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (s, i) in state.iter_mut().zip(input.iter()) {
            *s = s.wrapping_add(*i);
        }
        self.block = state;
        self.counter = self.counter.wrapping_add(1);
        self.cursor = 0;
    }

    /// Next 32 random bits.
    pub(crate) fn next_u32(&mut self) -> u32 {
        if self.cursor >= 16 {
            self.refill();
        }
        let w = self.block[self.cursor];
        self.cursor += 1;
        w
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }

    /// Fill `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(4) {
            let w = self.next_u32().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    }

    /// Uniform `f64` in `[0, 1)` (53 bits of precision).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "SimRng::range: empty range {lo}..{hi}");
        let span = hi - lo;
        // Rejection sampling to avoid modulo bias.
        let limit = u64::MAX - (u64::MAX % span);
        loop {
            let v = self.next_u64();
            if v < limit {
                return lo + v % span;
            }
        }
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Exponentially distributed draw with the given mean.
    ///
    /// Used for Poisson inter-arrival times in workload generators.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "SimRng::exponential: mean must be positive");
        let u = 1.0 - self.unit(); // in (0, 1]
        -mean * u.ln()
    }

    /// Truncated-normal-ish jitter: uniform in `[-spread, +spread]`.
    pub(crate) fn jitter(&mut self, spread: f64) -> f64 {
        (self.unit() * 2.0 - 1.0) * spread
    }

    /// Pick a uniformly random element index for a slice of length `len`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "SimRng::index: empty slice");
        self.range(0, len as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(42);
        let mut b = SimRng::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::from_seed(1);
        let mut b = SimRng::from_seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should diverge");
    }

    #[test]
    fn forks_are_stable_and_independent() {
        let master = SimRng::from_seed(7);
        let mut n1 = master.fork("network");
        let mut n2 = master.fork("network");
        let mut f = master.fork("faults");
        assert_eq!(n1.next_u64(), n2.next_u64(), "same label => same stream");
        // Different label should practically always differ on first draw.
        let mut n3 = master.fork("network");
        assert_ne!(n3.next_u64(), f.next_u64());
    }

    #[test]
    fn unit_in_range() {
        let mut r = SimRng::from_seed(3);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::from_seed(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut r = SimRng::from_seed(5);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(10.0)).sum();
        let mean = sum / n as f64;
        assert!(
            (mean - 10.0).abs() < 0.5,
            "empirical mean {mean} too far from 10"
        );
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = SimRng::from_seed(6);
        for _ in 0..1000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn range_panics_on_empty() {
        SimRng::from_seed(0).range(5, 5);
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = SimRng::from_seed(9);
        let mut buf = [0u8; 7];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0), "7 zero bytes is ~2^-56");
    }

    #[test]
    fn chacha_block_changes_every_refill() {
        let mut r = SimRng::from_seed(11);
        let first: Vec<u32> = (0..16).map(|_| r.next_u32()).collect();
        let second: Vec<u32> = (0..16).map(|_| r.next_u32()).collect();
        assert_ne!(first, second);
    }
}
