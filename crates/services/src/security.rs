//! Transport-level security (the paper's http vs https axis).
//!
//! Fig. 10/11 run every experiment "with and without transport level
//! security enabled (i.e. with http and https)" and observe throughput
//! halving. We reproduce the *mechanism*, not a fudge factor: a secured
//! request pays (a) a handshake and (b) per-byte stream-cipher +
//! integrity-tag work. In the real-thread benches [`Transport::process`]
//! actually burns those CPU cycles; in the discrete-event mode
//! [`Transport::overhead_cost`] prices the same work in simulated time.
//!
//! The cipher is a keystream XOR over xorshift64* with an FNV-1a tag —
//! obviously not cryptography; it is a stand-in with the right *cost
//! shape* (fixed handshake + linear per-byte work), which is all the
//! experiment measures.

use glare_fabric::store::fnv1a;
use glare_fabric::SimDuration;

/// Transport flavor of a service endpoint.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Transport {
    /// Plain HTTP.
    #[default]
    Http,
    /// HTTPS/GSI: handshake + per-byte crypto.
    Https,
}

/// Handshake mixing rounds (real work in threaded mode).
const HANDSHAKE_ROUNDS: u32 = 400;

/// Modeled handshake cost in simulated time (2005-era GSI handshake).
const HANDSHAKE_COST: SimDuration = SimDuration::from_millis(9);

/// Modeled per-KiB crypto cost.
const PER_KIB_COST: SimDuration = SimDuration::from_micros(550);

impl Transport {
    /// Human-readable label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Transport::Http => "http",
            Transport::Https => "https",
        }
    }

    /// Simulated-time cost of securing one request/response exchange of
    /// `bytes` payload. Zero for plain HTTP.
    pub fn overhead_cost(self, bytes: u64) -> SimDuration {
        match self {
            Transport::Http => SimDuration::ZERO,
            Transport::Https => {
                let kib = bytes.div_ceil(1024);
                HANDSHAKE_COST + PER_KIB_COST * kib
            }
        }
    }

    /// Perform the *actual* security work on a payload (handshake, encrypt,
    /// tag, decrypt, verify), returning a checksum so the optimizer
    /// cannot discard it. No-op (returns 0) for plain HTTP.
    pub fn process(self, payload: &[u8]) -> u64 {
        match self {
            Transport::Http => 0,
            Transport::Https => {
                let key = handshake(0x5157_ee0d_1234_abcd, payload.len() as u64);
                let mut ciphertext = payload.to_vec();
                let tag_tx = xor_keystream(&mut ciphertext, key);
                // Receiver side: decrypt and verify.
                let mut plaintext = ciphertext;
                let _tag_mid = xor_keystream(&mut plaintext, key);
                let tag_rx = fnv1a(&plaintext);
                assert_eq!(plaintext.as_slice(), payload, "cipher must round-trip");
                tag_tx ^ tag_rx
            }
        }
    }
}

/// Simulated asymmetric handshake: an iterated mixing function standing in
/// for the modular exponentiation of a real key exchange.
fn handshake(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for _ in 0..HANDSHAKE_ROUNDS {
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 29;
    }
    x | 1
}

/// XOR the buffer with an xorshift64* keystream; returns the FNV tag of
/// the resulting buffer.
fn xor_keystream(buf: &mut [u8], key: u64) -> u64 {
    let mut state = key;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let mut i = 0;
    while i < buf.len() {
        let word = next().to_le_bytes();
        for b in word.iter().take((buf.len() - i).min(8)) {
            buf[i] ^= b;
            i += 1;
        }
    }
    fnv1a(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_is_free() {
        assert_eq!(Transport::Http.overhead_cost(1 << 20), SimDuration::ZERO);
        assert_eq!(Transport::Http.process(b"anything"), 0);
    }

    #[test]
    fn https_cost_scales_with_size() {
        let small = Transport::Https.overhead_cost(512);
        let big = Transport::Https.overhead_cost(1 << 20);
        assert!(small >= HANDSHAKE_COST);
        assert!(big > small * 10, "1 MiB should cost far more than 512 B");
    }

    #[test]
    fn https_process_is_deterministic_and_nonzero() {
        let a = Transport::Https.process(b"hello grid");
        let b = Transport::Https.process(b"hello grid");
        assert_eq!(a, b);
        assert_ne!(a, 0);
        let c = Transport::Https.process(b"hello grid!");
        assert_ne!(a, c, "different payloads produce different tags");
    }

    #[test]
    fn cipher_round_trips_all_lengths() {
        // process() asserts the round-trip internally; exercise odd sizes.
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
            let _ = Transport::Https.process(&data);
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Transport::Http.label(), "http");
        assert_eq!(Transport::Https.label(), "https");
    }

    #[test]
    fn modeled_https_roughly_doubles_a_typical_request() {
        // A typical registry exchange: ~2 KiB payload, ~10 ms base service
        // time (paper-era hardware). The security overhead should be in
        // the same ballpark as the base cost, reproducing the observed
        // ~50% throughput drop.
        let overhead = Transport::Https.overhead_cost(2048);
        let base = SimDuration::from_millis(10);
        let ratio = overhead.as_millis_f64() / base.as_millis_f64();
        assert!(
            (0.5..=2.0).contains(&ratio),
            "overhead/base ratio {ratio} outside plausible band"
        );
    }
}
