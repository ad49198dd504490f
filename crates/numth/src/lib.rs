//! Number-theory substrate for the V-cal reproduction.
//!
//! The scatter-decomposition optimization of the paper (Theorem 3) reduces
//! the ownership test `proc(f(i)) = p` with `f(i) = a*i + c` to solving the
//! linear Diophantine equation `a*i - pmax*k = p - c`. This crate provides:
//!
//! * an **instrumented extended Euclid** ([`euclid::ext_gcd`]) that reports
//!   the number of division steps, so the cost claims of Section 4 of the
//!   paper (worst case `4.8*log10(N) - 0.32`, average `1.9504*log10(n)`)
//!   can be measured rather than assumed;
//! * a **linear Diophantine solver** ([`diophantine::solve`]) returning the
//!   particular solution and the full solution lattice;
//! * the **congruence solver** ([`diophantine::solve_congruence`]) used to
//!   build the closed-form generator `gen_p(t) = x_p + (pmax/gcd(a,pmax))*t`.
//!
//! Everything here is pure arithmetic on `i64`, with floor-semantics
//! division helpers (`div`/`%` in Rust truncate toward zero, while the
//! paper's `div`/`mod` on possibly-negative indices need floor semantics).

#![warn(missing_docs)]

pub mod diophantine;
pub mod euclid;

pub use diophantine::{solve, solve_congruence, Congruence, DioSolution};
pub use euclid::{ext_gcd, gcd, ExtGcd};

/// Floor division on `i64`.
#[inline]
pub fn div_floor(a: i64, b: i64) -> i64 {
    debug_assert!(b != 0, "div_floor by zero");
    let q = a / b;
    let r = a % b;
    if (r != 0) && ((r < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Ceiling division on `i64`.
#[inline]
pub fn div_ceil(a: i64, b: i64) -> i64 {
    debug_assert!(b != 0, "div_ceil by zero");
    let q = a / b;
    let r = a % b;
    if (r != 0) && ((r < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

/// Mathematical modulus: result always in `0..|b|` for `b > 0`.
#[inline]
pub fn mod_floor(a: i64, b: i64) -> i64 {
    debug_assert!(b != 0, "mod_floor by zero");
    let r = a % b;
    if (r != 0) && ((r < 0) != (b < 0)) {
        r + b
    } else {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn div_floor_matches_math() {
        assert_eq!(div_floor(7, 2), 3);
        assert_eq!(div_floor(-7, 2), -4);
        assert_eq!(div_floor(7, -2), -4);
        assert_eq!(div_floor(-7, -2), 3);
        assert_eq!(div_floor(6, 3), 2);
        assert_eq!(div_floor(-6, 3), -2);
    }

    #[test]
    fn div_ceil_matches_math() {
        assert_eq!(div_ceil(7, 2), 4);
        assert_eq!(div_ceil(-7, 2), -3);
        assert_eq!(div_ceil(7, -2), -3);
        assert_eq!(div_ceil(-7, -2), 4);
        assert_eq!(div_ceil(6, 3), 2);
    }

    #[test]
    fn mod_floor_always_nonnegative_for_positive_modulus() {
        for a in -50..50 {
            for b in 1..10 {
                let m = mod_floor(a, b);
                assert!((0..b).contains(&m), "mod_floor({a},{b}) = {m}");
                assert_eq!(div_floor(a, b) * b + m, a);
            }
        }
    }
}
