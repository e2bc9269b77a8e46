//! Node RPC framing for inter-shard calls.
//!
//! Shard search responses travel through the same string-keyed
//! [`ServiceResponse`](crate::message::ServiceResponse) records as
//! every other simulated service, but scatter-gather correctness
//! demands *exact* float round-trips: the gather side re-sorts merged
//! candidates by raw BM25 score, and a decimal-formatted f32 that
//! rounds differently on decode would reorder ties and break the
//! bit-identity guarantee. Floats are therefore framed as the
//! fixed-width hex of their IEEE-754 bit pattern — `encode_f32` /
//! `decode_f32` are exact inverses for every value, including
//! infinities and NaN payloads.
//!
//! Endpoint naming for cluster nodes lives here too, so routers,
//! fault plans, and tests derive identical endpoint strings instead
//! of formatting them ad hoc.

/// Frame an `f32` as the 8-hex-digit form of its bit pattern
/// (lossless for every value).
pub fn encode_f32(v: f32) -> String {
    format!("{:08x}", v.to_bits())
}

/// Decode a float framed by [`encode_f32`]. `None` on malformed
/// input (wrong length or non-hex digits).
pub fn decode_f32(s: &str) -> Option<f32> {
    if s.len() != 8 {
        return None;
    }
    u32::from_str_radix(s, 16).ok().map(f32::from_bits)
}

/// Decode a `u64` framed in decimal (page indexes, counts).
pub fn decode_u64(s: &str) -> Option<u64> {
    s.parse().ok()
}

/// Decode an `i64` framed in decimal (epoch timestamps).
pub fn decode_i64(s: &str) -> Option<i64> {
    s.parse().ok()
}

/// Transport endpoint name of shard `i`'s primary search node.
pub fn shard_endpoint(shard: usize) -> String {
    format!("shard-{shard}")
}

/// Transport endpoint name of shard `i`'s replica search node.
pub fn replica_endpoint(shard: usize) -> String {
    format!("shard-{shard}-replica")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_roundtrip_is_exact_for_every_bit_pattern_class() {
        let cases = [
            0.0f32,
            -0.0,
            1.0,
            -1.5,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            f32::NEG_INFINITY,
            f32::INFINITY,
            1.0e-40, // subnormal
            std::f32::consts::PI,
        ];
        for v in cases {
            let decoded = decode_f32(&encode_f32(v)).expect("roundtrip");
            assert_eq!(v.to_bits(), decoded.to_bits(), "value {v}");
        }
        // NaN payloads survive too (bit equality, not ==).
        let nan = f32::from_bits(0x7fc0_1234);
        assert_eq!(
            decode_f32(&encode_f32(nan)).expect("nan").to_bits(),
            nan.to_bits()
        );
    }

    #[test]
    fn f32_roundtrip_dense_bit_sweep() {
        // A stride through the full u32 space: every decode must give
        // back the exact encoded pattern.
        let mut bits = 0u32;
        while bits < u32::MAX - 65_537 {
            let v = f32::from_bits(bits);
            assert_eq!(decode_f32(&encode_f32(v)).unwrap().to_bits(), bits);
            bits += 65_537;
        }
    }

    #[test]
    fn malformed_floats_are_rejected() {
        assert_eq!(decode_f32(""), None);
        assert_eq!(decode_f32("zz"), None);
        assert_eq!(decode_f32("0123456"), None);
        assert_eq!(decode_f32("012345678"), None);
        assert_eq!(decode_f32("0123456g"), None);
    }

    #[test]
    fn integer_framing_roundtrips() {
        for v in [0u64, 1, u64::MAX] {
            assert_eq!(decode_u64(&v.to_string()), Some(v));
        }
        for v in [i64::MIN, -1, 0, 7, i64::MAX] {
            assert_eq!(decode_i64(&v.to_string()), Some(v));
        }
        assert_eq!(decode_u64("-1"), None);
        assert_eq!(decode_i64("x"), None);
    }

    #[test]
    fn endpoint_names_are_stable() {
        assert_eq!(shard_endpoint(0), "shard-0");
        assert_eq!(replica_endpoint(3), "shard-3-replica");
    }
}
