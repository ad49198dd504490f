//! The decomposition-specification language.
//!
//! The paper's whole premise is that the data decomposition is specified
//! *separately* from the algorithm and that "experimentation with
//! different versions of the same parallel algorithm, for example
//! different decompositions" should not require program restructuring.
//! This module provides that separate specification as text:
//!
//! ```text
//! processors 8;
//! array A[0:1023]  block;
//! array B[0:1023]  scatter;
//! array C[0:1023]  blockscatter(4);
//! array D[0:99]    replicated;
//! ```
//!
//! Parsing yields a [`DecompMap`] ready for `SpmdPlan::build`, so the
//! same program can be re-planned under a different spec by editing one
//! file — no change to the algorithm text.

use crate::lex::{lex, LexError, Tok};
use std::fmt;
use vcal_core::Bounds;
use vcal_decomp::{Decomp1, Distribution};
use vcal_spmd::DecompMap;

/// Errors from decomposition-spec parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum DeclError {
    /// Tokenization failed.
    Lex(LexError),
    /// Structural error with a message.
    Malformed(String),
    /// `processors` missing or declared after arrays.
    MissingProcessors,
    /// The same array declared twice.
    Duplicate(String),
}

impl fmt::Display for DeclError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeclError::Lex(e) => write!(f, "{e}"),
            DeclError::Malformed(m) => write!(f, "malformed decomposition spec: {m}"),
            DeclError::MissingProcessors => {
                write!(f, "spec must start with `processors <n>;`")
            }
            DeclError::Duplicate(a) => write!(f, "array `{a}` declared twice"),
        }
    }
}

impl std::error::Error for DeclError {}

impl From<LexError> for DeclError {
    fn from(e: LexError) -> Self {
        DeclError::Lex(e)
    }
}

/// A parsed specification.
#[derive(Debug, Clone)]
pub struct DecompSpec {
    /// Number of processors.
    pub pmax: i64,
    /// Array name → decomposition.
    pub decomps: DecompMap,
}

/// Parse a decomposition-specification text.
pub fn parse_spec(src: &str) -> Result<DecompSpec, DeclError> {
    let toks = lex(src)?;
    let mut pos = 0usize;

    let ident = |toks: &[Tok], pos: &mut usize| -> Option<String> {
        if let Some(Tok::Ident(s)) = toks.get(*pos) {
            *pos += 1;
            Some(s.clone())
        } else {
            None
        }
    };
    let int = |toks: &[Tok], pos: &mut usize| -> Option<i64> {
        match toks.get(*pos) {
            Some(Tok::Int(n)) => {
                *pos += 1;
                Some(*n)
            }
            Some(Tok::Minus) => {
                if let Some(Tok::Int(n)) = toks.get(*pos + 1) {
                    *pos += 2;
                    Some(-n)
                } else {
                    None
                }
            }
            _ => None,
        }
    };
    let expect = |toks: &[Tok], pos: &mut usize, t: &Tok| -> bool {
        if toks.get(*pos) == Some(t) {
            *pos += 1;
            true
        } else {
            false
        }
    };

    // processors <n>;
    match ident(&toks, &mut pos).as_deref() {
        Some("processors") => {}
        _ => return Err(DeclError::MissingProcessors),
    }
    let pmax = int(&toks, &mut pos)
        .filter(|&n| n >= 1)
        .ok_or_else(|| DeclError::Malformed("processors needs a positive count".into()))?;
    if !expect(&toks, &mut pos, &Tok::Semi) {
        return Err(DeclError::Malformed("missing `;` after processors".into()));
    }

    let mut decomps = DecompMap::new();
    while pos < toks.len() {
        match ident(&toks, &mut pos).as_deref() {
            Some("array") => {}
            Some(other) => {
                return Err(DeclError::Malformed(format!(
                    "expected `array`, found `{other}`"
                )))
            }
            None => {
                return Err(DeclError::Malformed("expected `array`".into()));
            }
        }
        let name = ident(&toks, &mut pos)
            .ok_or_else(|| DeclError::Malformed("array needs a name".into()))?;
        if !expect(&toks, &mut pos, &Tok::LBracket) {
            return Err(DeclError::Malformed(format!(
                "array `{name}` needs `[lo:hi]`"
            )));
        }
        let lo =
            int(&toks, &mut pos).ok_or_else(|| DeclError::Malformed("bad lower bound".into()))?;
        // the lexer has no `:` token (it demands `:=`), so ranges are
        // written `lo : hi`? No — reuse `to`: `array A[0 to 1023]`.
        if ident(&toks, &mut pos).as_deref().is_some() {
            return Err(DeclError::Malformed(
                "array bounds use `lo to hi` inside brackets".into(),
            ));
        }
        if !expect(&toks, &mut pos, &Tok::To) {
            return Err(DeclError::Malformed("array bounds use `lo to hi`".into()));
        }
        let hi =
            int(&toks, &mut pos).ok_or_else(|| DeclError::Malformed("bad upper bound".into()))?;
        if !expect(&toks, &mut pos, &Tok::RBracket) {
            return Err(DeclError::Malformed("missing `]`".into()));
        }
        let extent = Bounds::range(lo, hi);
        let dec = match ident(&toks, &mut pos).as_deref() {
            Some("block") => Decomp1::block(pmax, extent),
            Some("scatter") => Decomp1::scatter(pmax, extent),
            Some("replicated") => Decomp1::replicated(pmax, extent),
            Some("blockscatter") => {
                if !expect(&toks, &mut pos, &Tok::LParen) {
                    return Err(DeclError::Malformed("blockscatter needs `(b)`".into()));
                }
                let b = int(&toks, &mut pos)
                    .filter(|&b| b >= 1)
                    .ok_or_else(|| DeclError::Malformed("bad block size".into()))?;
                if !expect(&toks, &mut pos, &Tok::RParen) {
                    return Err(DeclError::Malformed("missing `)`".into()));
                }
                let dist = Distribution::BlockScatter { b };
                Decomp1::try_new(dist, pmax, extent).map_err(DeclError::Malformed)?
            }
            other => {
                return Err(DeclError::Malformed(format!(
                    "unknown distribution `{}` for array `{name}`",
                    other.unwrap_or("<eof>")
                )))
            }
        };
        if !expect(&toks, &mut pos, &Tok::Semi) {
            return Err(DeclError::Malformed(format!("missing `;` after `{name}`")));
        }
        if decomps.insert(name.clone(), dec).is_some() {
            return Err(DeclError::Duplicate(name));
        }
    }
    Ok(DecompSpec { pmax, decomps })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
        processors 8;\n\
        array A[0 to 1023] block;\n\
        array B[0 to 1023] scatter;\n\
        array C[0 to 1023] blockscatter(4);\n\
        array D[-5 to 99] replicated;\n";

    #[test]
    fn full_spec_parses() {
        let spec = parse_spec(SPEC).unwrap();
        assert_eq!(spec.pmax, 8);
        assert_eq!(spec.decomps.len(), 4);
        assert_eq!(spec.decomps["A"].dist(), Distribution::Block { b: 128 });
        assert_eq!(spec.decomps["B"].dist(), Distribution::Scatter);
        assert_eq!(
            spec.decomps["C"].dist(),
            Distribution::BlockScatter { b: 4 }
        );
        assert!(spec.decomps["D"].is_replicated());
        assert_eq!(spec.decomps["D"].extent(), Bounds::range(-5, 99));
    }

    #[test]
    fn spec_plugs_into_plans() {
        use vcal_core::func::Fn1;
        use vcal_core::{ArrayRef, Clause, Expr, Guard, IndexSet, Ordering};
        use vcal_spmd::SpmdPlan;
        let spec = parse_spec(SPEC).unwrap();
        let clause = Clause {
            iter: IndexSet::range(0, 1023),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1("A", Fn1::identity()),
            rhs: Expr::Ref(ArrayRef::d1("B", Fn1::identity())),
        };
        let plan = SpmdPlan::build(&clause, &spec.decomps).unwrap();
        assert_eq!(plan.pmax, 8);
    }

    #[test]
    fn errors() {
        assert_eq!(
            parse_spec("array A[0 to 9] block;").unwrap_err(),
            DeclError::MissingProcessors
        );
        assert!(matches!(
            parse_spec("processors 0;").unwrap_err(),
            DeclError::Malformed(_)
        ));
        assert!(matches!(
            parse_spec("processors 4; array A[0 to 9] diagonal;").unwrap_err(),
            DeclError::Malformed(_)
        ));
        assert!(matches!(
            parse_spec("processors 4; array A[0 to 9] block; array A[0 to 9] scatter;")
                .unwrap_err(),
            DeclError::Duplicate(_)
        ));
        assert!(matches!(
            parse_spec("processors 4; array A[0 to 9] blockscatter;").unwrap_err(),
            DeclError::Malformed(_)
        ));
        // layouts whose cycle `b·pmax` overflows
        for (pmax, b) in [
            (2i64, 1i64 << 62),
            (1 << 62, 4),
            (3, 3_074_457_345_618_258_603),
            (2, i64::MAX),
        ] {
            let spec = format!("processors {pmax}; array U[0 to 9] blockscatter({b});");
            let err = parse_spec(&spec).unwrap_err();
            assert!(
                matches!(&err, DeclError::Malformed(m) if m.contains("overflows")),
                "{spec}: {err}"
            );
        }
    }
}
