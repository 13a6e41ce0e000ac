//! Shortest round-trip printing of `f64`, byte for byte what `{:?}`
//! prints.
//!
//! The digits come from Ryū (Ulf Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018): the shortest decimal inside the interval of
//! reals that round to the float, closest to the float itself. One step
//! of the published algorithm is left out on purpose: Ryū breaks an exact
//! tie between two closest candidates towards the even one, where `{:?}`
//! rounds it up (`2249082146819912.25` prints as `2249082146819912.3`).
//!
//! Ryū's two tables of 128-bit multipliers (342 of ⌊2^k / 5^i⌋ + 1, 326
//! of 5^i cut to its top 125 bits) are computed once, from exact integer
//! arithmetic on one big number each, the first time a float is printed.
//!
//! The layout is std's: `NaN`, `inf`, `-inf`, `0.0`, `-0.0`; exponent
//! form (`1e16`, `1.5e-5`) when |x| < 1e-4 or |x| ≥ 1e16, and otherwise
//! decimal form with at least one digit after the point.

use std::sync::OnceLock;

use crate::render::push_digits;

const MANTISSA_BITS: u32 = 52;
const BIAS: i32 = 1023;
/// Bits kept of each multiplier (Ryū's `DOUBLE_POW5_INV_BITCOUNT` and
/// `DOUBLE_POW5_BITCOUNT`, both 125).
const MULTIPLIER_BITS: i32 = 125;
const POW5_INV_LEN: usize = 342;
const POW5_LEN: usize = 326;

struct Tables {
    /// `⌊2^(⌊log2 5^i⌋ + 125) / 5^i⌋ + 1`, for exponents `e2 ≥ 0`.
    pow5_inv: [u128; POW5_INV_LEN],
    /// `5^i` shifted to exactly 125 bits, for exponents `e2 < 0`.
    pow5: [u128; POW5_LEN],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        // ⌊2^L / 5^i⌋ for one L past every ⌊log2 5^i⌋ + 125 (at most 917):
        // the floor of a floor divided by 5 is the floor of the exact
        // quotient, so each step divides the last one by 5, and shifting
        // it right gives every smaller power of two over 5^i.
        const L: i32 = 960;
        let mut quot = vec![0u32; L as usize / 32 + 1];
        quot[L as usize / 32] = 1;
        let mut pow = vec![1u32];
        let mut t = Tables {
            pow5_inv: [0; POW5_INV_LEN],
            pow5: [0; POW5_LEN],
        };
        for i in 0..POW5_INV_LEN {
            let bits = bit_len(&pow);
            t.pow5_inv[i] = window(&quot, L - (bits - 1 + MULTIPLIER_BITS)) + 1;
            if i < POW5_LEN {
                t.pow5[i] = window(&pow, bits - MULTIPLIER_BITS);
            }
            mul_small(&mut pow, 5);
            div_small(&mut quot, 5);
        }
        t
    })
}

/// Bit length of a little-endian base-2^32 number with no zero top limb.
fn bit_len(n: &[u32]) -> i32 {
    32 * n.len() as i32 - n[n.len() - 1].leading_zeros() as i32
}

/// `⌊n / 2^shift⌋` (`n · 2^-shift` for a negative shift); the result must
/// fit in 128 bits.
fn window(n: &[u32], shift: i32) -> u128 {
    n.iter().enumerate().fold(0, |acc, (j, &limb)| {
        let at = 32 * j as i32 - shift;
        match at {
            ..=-32 => acc,
            -31..=-1 => acc | u128::from(limb >> -at),
            _ => acc | u128::from(limb) << at,
        }
    })
}

fn mul_small(n: &mut Vec<u32>, by: u32) {
    let mut carry = 0u64;
    for limb in n.iter_mut() {
        let x = u64::from(*limb) * u64::from(by) + carry;
        *limb = x as u32;
        carry = x >> 32;
    }
    if carry > 0 {
        n.push(carry as u32);
    }
}

/// Divide by `by`, rounding down, and drop the zero top limbs.
fn div_small(n: &mut Vec<u32>, by: u32) {
    let mut rem = 0u64;
    for limb in n.iter_mut().rev() {
        let x = rem << 32 | u64::from(*limb);
        *limb = (x / u64::from(by)) as u32;
        rem = x % u64::from(by);
    }
    while n.last() == Some(&0) {
        n.pop();
    }
}

/// `⌊log2 5^e⌋ + 1`, for `0 ≤ e ≤ 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log10 2^e⌋`, for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log10 5^e⌋`, for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn pow5_factor(mut v: u64) -> u32 {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count
}

/// `⌊m · mul / 2^j⌋` for a 125-bit `mul` and `j ≥ 64`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let lo = u128::from(m) * u128::from(mul as u64);
    let hi = u128::from(m) * (mul >> 64);
    (((lo >> 64) + hi) >> (j - 64)) as u64
}

/// The shortest `digits · 10^exp` that reads back as the positive,
/// finite float with IEEE bits `bits` (Ryū's `d2d`, ties rounded up).
fn shortest(bits: u64) -> (u64, i32) {
    let t = tables();
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as i32;
    // The float is m2 · 2^e2; 2 more bits leave room for the interval's
    // half-ulp bounds.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent - BIAS - MANTISSA_BITS as i32 - 2,
            1 << MANTISSA_BITS | ieee_mantissa,
        )
    };
    // Round-to-even parsing reads the bounds back as this float.
    let accept_bounds = m2 % 2 == 0;
    let mv = 4 * m2;
    // Below a power of two the floats are twice as dense, so the lower
    // bound is half as far (mm_shift 0) there.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    // Scale the interval [mm, mp] to decimal with q digits dropped.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let j = -e2 + q as i32 + MULTIPLIER_BITS + pow5_bits(q as i32) - 1;
        let mul = t.pow5_inv[q as usize];
        (vr, vp, vm) = (
            mul_shift(mv, mul, j),
            mul_shift(mp, mul, j),
            mul_shift(mm, mul, j),
        );
        // Only one of mp, mv and mm can be a multiple of 5, if any.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_trailing_zeros = pow5_factor(mm) >= q;
            } else {
                vp -= u64::from(pow5_factor(mp) >= q);
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let j = q as i32 - (pow5_bits(i) - MULTIPLIER_BITS);
        let mul = t.pow5[i as usize];
        (vr, vp, vm) = (
            mul_shift(mv, mul, j),
            mul_shift(mp, mul, j),
            mul_shift(mm, mul, j),
        );
        if q <= 1 {
            // mm = mv - 1 - mm_shift has one trailing 0 bit iff mm_shift
            // is 1; mp = mv + 2 always has one.
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter candidate.
    let mut removed = 0;
    let mut last_removed = 0;
    while vp / 10 > vm / 10 {
        vm_is_trailing_zeros &= vm % 10 == 0;
        last_removed = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    if vm_is_trailing_zeros {
        // The lower bound is exact and may itself be shorter.
        while vm % 10 == 0 {
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // Ryū turns an exact ...50 tail into ...4 here when vr is even; `{:?}`
    // rounds every tie up, so that step is not taken.
    let round_up = (vr == vm && !(accept_bounds && vm_is_trailing_zeros)) || last_removed >= 5;
    (vr + u64::from(round_up), e10 + removed)
}

const ZEROS: &str = "0000000000000000000000";

/// Append `x` to `out` exactly as `write!(out, "{x:?}")` would.
pub(crate) fn push_f64(out: &mut String, x: f64) {
    if x.is_nan() {
        out.push_str("NaN");
        return;
    }
    if x.is_sign_negative() {
        out.push('-');
    }
    let abs = x.abs();
    if abs.is_infinite() {
        out.push_str("inf");
        return;
    }
    if abs == 0.0 {
        out.push_str("0.0");
        return;
    }
    let (mantissa, exp) = shortest(abs.to_bits());
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut rest = mantissa;
    while rest > 0 {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    let digits = std::str::from_utf8(&buf[at..]).expect("ASCII digits");
    // abs = 0.DIGITS · 10^point
    let n = digits.len() as i32;
    let point = exp + n;
    if (1e-4..1e16).contains(&abs) {
        if point <= 0 {
            out.push_str("0.");
            out.push_str(&ZEROS[..-point as usize]);
            out.push_str(digits);
        } else if point < n {
            out.push_str(&digits[..point as usize]);
            out.push('.');
            out.push_str(&digits[point as usize..]);
        } else {
            out.push_str(digits);
            out.push_str(&ZEROS[..(point - n) as usize]);
            out.push_str(".0");
        }
    } else {
        out.push_str(&digits[..1]);
        if n > 1 {
            out.push('.');
            out.push_str(&digits[1..]);
        }
        out.push('e');
        let e = point - 1;
        if e < 0 {
            out.push('-');
        }
        push_digits(out, u64::from(e.unsigned_abs()), false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    fn printed(x: f64) -> String {
        let mut s = String::new();
        push_f64(&mut s, x);
        s
    }

    /// Compare with `{:?}` on every value `values` yields; returns how many.
    fn sweep(values: impl Iterator<Item = f64>) -> u64 {
        let (mut want, mut got) = (String::new(), String::new());
        let mut n = 0;
        for x in values {
            want.clear();
            got.clear();
            let _ = write!(want, "{x:?}");
            push_f64(&mut got, x);
            assert_eq!(got, want, "bits {:#018x}", x.to_bits());
            n += 1;
        }
        n
    }

    /// SplitMix64.
    fn rng(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    // The ties are written out to their last exact binary digit.
    #[allow(clippy::excessive_precision)]
    fn ties_and_boundaries_print_as_debug_does() {
        for (x, want) in [
            // Exact ties between two shortest candidates round up.
            (2249082146819912.25, "2249082146819912.3"),
            (247796919343770.125, "247796919343770.13"),
            (-2886254405724.53125, "-2886254405724.5313"),
            // Where decimal form gives way to exponent form.
            (1e-4, "0.0001"),
            (
                f64::from_bits(1e-4f64.to_bits() - 1),
                "9.999999999999999e-5",
            ),
            (1e16, "1e16"),
            (f64::from_bits(1e16f64.to_bits() - 1), "9999999999999998.0"),
            (1.5e-5, "1.5e-5"),
            (5e-324, "5e-324"),
            (f64::MAX, "1.7976931348623157e308"),
            (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
            (0.1 + 0.2, "0.30000000000000004"),
            (100.0, "100.0"),
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (f64::NAN, "NaN"),
            (-f64::NAN, "NaN"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
        ] {
            assert_eq!(printed(x), want);
            assert_eq!(want, format!("{x:?}"));
        }
    }

    #[test]
    fn every_binade_prints_as_debug_does() {
        // Each exponent field uses its own table entry; its first, last
        // and a few random mantissas reach every entry a float can use.
        let mut next = rng(1);
        let values = (0..2047u64).flat_map(|e| {
            let mut ms = [0, (1 << 52) - 1, 1, 0, 0, 0];
            for m in &mut ms[3..] {
                *m = next() >> 12;
            }
            ms.map(move |m| f64::from_bits(e << 52 | m))
        });
        assert_eq!(sweep(values), 2047 * 6);
    }

    /// At least 10 M seeded values against `{:?}`; run it with
    /// `cargo test --release -p hdsampler-webform --lib shortest -- --ignored`.
    #[test]
    #[ignore = "10 M values; run in release"]
    fn sweep_matches_debug() {
        let mut next = rng(2018);
        let mut n = 0;
        // Random bit patterns, NaNs and infinities included.
        n += sweep((0..4_000_000).map(|_| f64::from_bits(next())));
        // The tie-heavy band: 44 to 54 integer bits over 1 to 5 fraction
        // bits, where 16 and 17 digit candidates meet exact halves.
        n += sweep((0..4_000_000).map(|_| {
            let frac_bits = 1 + next() % 5;
            let int_bits = 44 + next() % 10;
            let m = next() >> (64 - int_bits - frac_bits) | 1 << (int_bits + frac_bits - 1);
            let x = m as f64 / (1u64 << frac_bits) as f64;
            if next().is_multiple_of(2) {
                x
            } else {
                -x
            }
        }));
        // Powers of 2 and of 10, and their neighbours.
        let pow2 = (-1074..=1023).map(|e| 2f64.powi(e));
        let pow10 = (-323..=308).map(|e| format!("1e{e}").parse::<f64>().expect("a float"));
        n += sweep(pow2.chain(pow10).flat_map(|x| {
            let b = x.to_bits();
            [b - 1, b, b + 1].map(f64::from_bits)
        }));
        // Subnormals.
        n += sweep((0..500_000).map(|_| f64::from_bits(next() >> (12 + next() % 52))));
        // Short decimals: up to 7 digits over 10^0..10^12.
        n += sweep((0..1_000_000).map(|_| {
            let digits = next() % 10_000_000;
            let scale = next() % 13;
            format!("{digits}e-{scale}")
                .parse::<f64>()
                .expect("a float")
        }));
        // Integers of every size.
        n += sweep((0..500_000).map(|_| (next() >> (next() % 64)) as f64));
        assert!(n >= 10_000_000, "{n} values");
    }
}
