//! Runtime values and bit-level manipulation.

use serde::{Deserialize, Serialize};

/// A runtime value: one 64-bit word plus a kind tag.
///
/// Bit flips operate on the 64-bit payload and never change the kind — a
/// particle strike corrupts the bits of a register or memory cell, not the
/// static type of the program that uses it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// 64-bit signed integer.
    I(i64),
    /// 64-bit IEEE-754 float.
    F(f64),
    /// Pointer (index of an 8-byte cell in VM memory).
    P(u64),
}

impl Value {
    /// Integer payload, if this is an integer.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Value::I(v) => Some(v),
            _ => None,
        }
    }

    /// Float payload, if this is a float.
    pub fn as_f64(self) -> Option<f64> {
        match self {
            Value::F(v) => Some(v),
            _ => None,
        }
    }

    /// Pointer payload, if this is a pointer.
    pub fn as_ptr(self) -> Option<u64> {
        match self {
            Value::P(v) => Some(v),
            _ => None,
        }
    }

    /// The raw 64-bit payload, regardless of kind.
    pub fn bits(self) -> u64 {
        match self {
            Value::I(v) => v as u64,
            Value::F(v) => v.to_bits(),
            Value::P(v) => v,
        }
    }

    /// Rebuild a value of the same kind from raw bits.
    pub fn with_bits(self, bits: u64) -> Value {
        match self {
            Value::I(_) => Value::I(bits as i64),
            Value::F(_) => Value::F(f64::from_bits(bits)),
            Value::P(_) => Value::P(bits),
        }
    }

    /// Flip bit `bit` (0 = least significant) of the payload, preserving the
    /// kind.  This is the single-bit-flip fault model of the paper.
    pub fn flip_bit(self, bit: u8) -> Value {
        self.with_bits(self.bits() ^ flip_mask(bit))
    }

    /// Truth value: non-zero payloads are true.  Used by `condbr`/`select`.
    pub fn is_truthy(self) -> bool {
        match self {
            Value::I(v) => v != 0,
            Value::F(v) => v != 0.0,
            Value::P(v) => v != 0,
        }
    }

    /// Numeric value as a float, converting integers; pointers convert via
    /// their address.  Used by error-magnitude computations.
    pub fn to_f64_lossy(self) -> f64 {
        match self {
            Value::I(v) => v as f64,
            Value::F(v) => v,
            Value::P(v) => v as f64,
        }
    }

    /// Kind name (for diagnostics).
    pub fn kind(self) -> &'static str {
        match self {
            Value::I(_) => "i64",
            Value::F(_) => "f64",
            Value::P(_) => "ptr",
        }
    }

    /// Two values are *bit-identical* when both kind and payload match.
    /// NaN payloads compare equal here, unlike `PartialEq` on floats, which
    /// makes trace alignment between faulty and fault-free runs total.
    pub fn bit_eq(self, other: Value) -> bool {
        std::mem::discriminant(&self) == std::mem::discriminant(&other)
            && self.bits() == other.bits()
    }

    /// Relative error of `self` with respect to a reference value, following
    /// Eq. (2) of the paper: `|correct - incorrect| / |correct|`.  Returns
    /// `f64::INFINITY` when the reference is zero and the values differ, and
    /// `0.0` when they are bit-identical.
    pub fn error_magnitude(self, correct: Value) -> f64 {
        if self.bit_eq(correct) {
            return 0.0;
        }
        let c = correct.to_f64_lossy();
        let i = self.to_f64_lossy();
        if c == 0.0 {
            if i == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            ((c - i).abs()) / c.abs()
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::I(v) => write!(f, "{v}"),
            Value::F(v) => write!(f, "{v:?}"),
            Value::P(v) => write!(f, "&{v}"),
        }
    }
}

/// The payload mask [`Value::flip_bit`] XORs in for `bit`.
pub(crate) fn flip_mask(bit: u8) -> u64 {
    1u64 << (bit as u32 % 64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_roundtrip_preserves_kind_and_payload() {
        for v in [Value::I(-42), Value::F(3.25), Value::P(17)] {
            assert!(v.with_bits(v.bits()).bit_eq(v));
        }
    }

    #[test]
    fn flip_bit_is_an_involution() {
        let v = Value::F(123.456);
        for bit in [0u8, 7, 31, 52, 63] {
            assert!(v.flip_bit(bit).flip_bit(bit).bit_eq(v));
            assert!(!v.flip_bit(bit).bit_eq(v));
        }
    }

    #[test]
    fn flipping_high_exponent_bit_changes_magnitude_dramatically() {
        let v = Value::F(1.0);
        let flipped = v.flip_bit(62).as_f64().unwrap();
        assert!(flipped != 1.0);
        assert!(flipped.abs() < 1e-50 || flipped.abs() > 1e50 || flipped.is_nan());
    }

    #[test]
    fn truthiness() {
        assert!(Value::I(5).is_truthy());
        assert!(!Value::I(0).is_truthy());
        assert!(Value::F(0.1).is_truthy());
        assert!(!Value::F(0.0).is_truthy());
        assert!(Value::P(1).is_truthy());
        assert!(!Value::P(0).is_truthy());
    }

    #[test]
    fn error_magnitude_matches_paper_definition() {
        let correct = Value::F(2.0);
        let faulty = Value::F(2.5);
        assert!((faulty.error_magnitude(correct) - 0.25).abs() < 1e-12);
        // Zero reference with nonzero faulty value => infinite relative error
        // (Table II itr1 in the paper).
        assert!(Value::F(0.000000059604645)
            .error_magnitude(Value::F(0.0))
            .is_infinite());
        assert_eq!(Value::F(7.0).error_magnitude(Value::F(7.0)), 0.0);
    }

    #[test]
    fn nan_is_bit_equal_to_itself() {
        let nan = Value::F(f64::NAN);
        assert!(nan.bit_eq(nan));
        assert_ne!(nan, nan); // PartialEq follows IEEE, bit_eq does not.
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::I(3).as_i64(), Some(3));
        assert_eq!(Value::I(3).as_f64(), None);
        assert_eq!(Value::F(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::P(9).as_ptr(), Some(9));
        assert_eq!(Value::P(9).kind(), "ptr");
        assert_eq!(Value::I(1).to_f64_lossy(), 1.0);
    }
}
