//! Recursive-descent parser for the miniature imperative language.
//!
//! ```text
//! program  := stmt+
//! stmt     := for | if | assign
//! for      := "for" IDENT ":=" int "to" int "do" stmt+ "od" ";"
//! if       := "if" aref relop number "then" stmt+ "fi" ";"
//! assign   := aref ":=" valexpr ";"
//! aref     := IDENT "[" idxexpr "]"
//! idxexpr  := idxterm { ("+" | "-") idxterm }
//! idxterm  := idxfactor [ "*" idxfactor ]
//! idxfactor:= (INT | IDENT | "(" idxexpr ")") { ("mod" | "div") INT }
//! valexpr  := valterm { ("+" | "-") valterm }
//! valterm  := valfactor { ("*" | "/") valfactor }
//! valfactor:= ["-"] (NUMBER | IDENT | aref | "(" valexpr ")")
//! ```

use crate::ast::{ARef, IdxExpr, RelOp, Stmt, ValExpr};
use crate::lex::{lex, LexError, Tok};
use std::fmt;
use vcal_core::MAX_DEPTH;

/// A parse error.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Tokenization failed.
    Lex(LexError),
    /// Unexpected token (or end of input) at the given token index.
    Unexpected {
        /// Token index.
        at: usize,
        /// What was found.
        found: String,
        /// What was expected.
        expected: String,
    },
    /// The tree would nest deeper than [`MAX_DEPTH`] levels.
    TooDeep {
        /// Token index.
        at: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected {
                at,
                found,
                expected,
            } => {
                write!(
                    f,
                    "parse error at token {at}: found `{found}`, expected {expected}"
                )
            }
            ParseError::TooDeep { at } => write!(
                f,
                "parse error at token {at}: nesting deeper than {MAX_DEPTH} levels"
            ),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// Depth of the tree being built at the current token: parentheses,
    /// unary minus, nested statements and each operator of a
    /// left-nested chain count one level.
    depth: usize,
}

/// Parse a program (one or more statements).
pub fn parse(src: &str) -> Result<Vec<Stmt>, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let mut stmts = Vec::new();
    while !p.at_end() {
        stmts.push(p.stmt()?);
    }
    if stmts.is_empty() {
        return Err(ParseError::Unexpected {
            at: 0,
            found: "end of input".into(),
            expected: "a statement".into(),
        });
    }
    Ok(stmts)
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// One level deeper; past [`MAX_DEPTH`] a typed error, so no walk
    /// over the tree (translation, printing, the wire codec) can run
    /// out of stack on it.
    fn deeper(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(ParseError::TooDeep { at: self.pos });
        }
        Ok(())
    }

    /// Parse `f` one level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.deeper()?;
        let r = f(self);
        self.depth -= 1;
        r
    }

    fn err<T>(&self, expected: &str) -> Result<T, ParseError> {
        Err(ParseError::Unexpected {
            at: self.pos,
            found: self
                .peek()
                .map(|t| t.to_string())
                .unwrap_or_else(|| "end of input".into()),
            expected: expected.into(),
        })
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(what)
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => self.err(what),
        }
    }

    fn int(&mut self) -> Result<i64, ParseError> {
        let neg = if self.peek() == Some(&Tok::Minus) {
            self.pos += 1;
            true
        } else {
            false
        };
        match self.bump() {
            Some(Tok::Int(n)) => Ok(if neg { -n } else { n }),
            _ => {
                self.pos -= 1;
                self.err("an integer")
            }
        }
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        let neg = if self.peek() == Some(&Tok::Minus) {
            self.pos += 1;
            true
        } else {
            false
        };
        let v = match self.bump() {
            Some(Tok::Int(n)) => n as f64,
            Some(Tok::Float(x)) => x,
            _ => {
                self.pos -= 1;
                return self.err("a number");
            }
        };
        Ok(if neg { -v } else { v })
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Some(Tok::For) => self.for_stmt(),
            Some(Tok::If) => self.if_stmt(),
            Some(Tok::Ident(_)) => self.assign_stmt(),
            _ => self.err("`for`, `if`, or an assignment"),
        }
    }

    fn for_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.expect(&Tok::For, "`for`")?;
        let var = self.ident("loop variable")?;
        self.expect(&Tok::Assign, "`:=`")?;
        let lo = self.int()?;
        self.expect(&Tok::To, "`to`")?;
        let hi = self.int()?;
        self.expect(&Tok::Do, "`do`")?;
        let mut body = Vec::new();
        while self.peek() != Some(&Tok::Od) {
            if self.at_end() {
                return self.err("`od`");
            }
            body.push(self.nested(Self::stmt)?);
        }
        self.expect(&Tok::Od, "`od`")?;
        self.expect(&Tok::Semi, "`;` after `od`")?;
        Ok(Stmt::For { var, lo, hi, body })
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.expect(&Tok::If, "`if`")?;
        let lhs = self.aref()?;
        let op = match self.bump() {
            Some(Tok::Gt) => RelOp::Gt,
            Some(Tok::Ge) => RelOp::Ge,
            Some(Tok::Lt) => RelOp::Lt,
            Some(Tok::Le) => RelOp::Le,
            Some(Tok::Eq) => RelOp::Eq,
            Some(Tok::Ne) => RelOp::Ne,
            _ => {
                self.pos -= 1;
                return self.err("a comparison operator");
            }
        };
        let rhs = self.number()?;
        self.expect(&Tok::Then, "`then`")?;
        let mut body = Vec::new();
        while self.peek() != Some(&Tok::Fi) {
            if self.at_end() {
                return self.err("`fi`");
            }
            body.push(self.nested(Self::stmt)?);
        }
        self.expect(&Tok::Fi, "`fi`")?;
        self.expect(&Tok::Semi, "`;` after `fi`")?;
        Ok(Stmt::If { lhs, op, rhs, body })
    }

    fn assign_stmt(&mut self) -> Result<Stmt, ParseError> {
        let lhs = self.aref()?;
        self.expect(&Tok::Assign, "`:=`")?;
        let rhs = self.valexpr()?;
        self.expect(&Tok::Semi, "`;`")?;
        Ok(Stmt::Assign { lhs, rhs })
    }

    fn aref(&mut self) -> Result<ARef, ParseError> {
        let array = self.ident("array name")?;
        self.expect(&Tok::LBracket, "`[`")?;
        let mut index = vec![self.idxexpr()?];
        while self.peek() == Some(&Tok::Comma) {
            self.pos += 1;
            index.push(self.idxexpr()?);
        }
        self.expect(&Tok::RBracket, "`]`")?;
        Ok(ARef { array, index })
    }

    // ---- index expressions ------------------------------------------------

    fn idxexpr(&mut self) -> Result<IdxExpr, ParseError> {
        let depth = self.depth;
        let mut e = self.idxterm()?;
        loop {
            match self.peek() {
                Some(Tok::Plus) => {
                    self.pos += 1;
                    self.deeper()?;
                    let r = self.idxterm()?;
                    e = IdxExpr::Add(Box::new(e), Box::new(r));
                }
                Some(Tok::Minus) => {
                    self.pos += 1;
                    self.deeper()?;
                    let r = self.idxterm()?;
                    e = IdxExpr::Sub(Box::new(e), Box::new(r));
                }
                _ => {
                    self.depth = depth;
                    return Ok(e);
                }
            }
        }
    }

    fn idxterm(&mut self) -> Result<IdxExpr, ParseError> {
        let l = self.idxfactor()?;
        if self.peek() == Some(&Tok::Star) {
            self.pos += 1;
            let r = self.nested(Self::idxfactor)?;
            Ok(match (&l, &r) {
                (IdxExpr::Num(k), _) => IdxExpr::Scale(*k, Box::new(r)),
                (_, IdxExpr::Num(k)) => IdxExpr::Scale(*k, Box::new(l)),
                _ => IdxExpr::MulVar(Box::new(l), Box::new(r)),
            })
        } else {
            Ok(l)
        }
    }

    fn idxfactor(&mut self) -> Result<IdxExpr, ParseError> {
        let mut base = match self.peek().cloned() {
            Some(Tok::Int(n)) => {
                self.pos += 1;
                IdxExpr::Num(n)
            }
            Some(Tok::Minus) => {
                self.pos += 1;
                match self.bump() {
                    Some(Tok::Int(n)) => IdxExpr::Num(-n),
                    _ => {
                        self.pos -= 1;
                        return self.err("an integer after `-`");
                    }
                }
            }
            Some(Tok::Ident(v)) => {
                self.pos += 1;
                IdxExpr::Var(v)
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let e = self.nested(Self::idxexpr)?;
                self.expect(&Tok::RParen, "`)`")?;
                e
            }
            _ => return self.err("an index expression"),
        };
        let depth = self.depth;
        loop {
            match self.peek() {
                Some(Tok::Mod) => {
                    self.pos += 1;
                    self.deeper()?;
                    let z = self.int()?;
                    base = IdxExpr::Mod(Box::new(base), z);
                }
                Some(Tok::Div) => {
                    self.pos += 1;
                    self.deeper()?;
                    let q = self.int()?;
                    base = IdxExpr::Div(Box::new(base), q);
                }
                _ => {
                    self.depth = depth;
                    return Ok(base);
                }
            }
        }
    }

    // ---- value expressions -------------------------------------------------

    fn valexpr(&mut self) -> Result<ValExpr, ParseError> {
        let depth = self.depth;
        let mut e = self.valterm()?;
        loop {
            match self.peek() {
                Some(Tok::Plus) => {
                    self.pos += 1;
                    self.deeper()?;
                    let r = self.valterm()?;
                    e = ValExpr::Add(Box::new(e), Box::new(r));
                }
                Some(Tok::Minus) => {
                    self.pos += 1;
                    self.deeper()?;
                    let r = self.valterm()?;
                    e = ValExpr::Sub(Box::new(e), Box::new(r));
                }
                _ => {
                    self.depth = depth;
                    return Ok(e);
                }
            }
        }
    }

    fn valterm(&mut self) -> Result<ValExpr, ParseError> {
        let depth = self.depth;
        let mut e = self.valfactor()?;
        loop {
            match self.peek() {
                Some(Tok::Star) => {
                    self.pos += 1;
                    self.deeper()?;
                    let r = self.valfactor()?;
                    e = ValExpr::Mul(Box::new(e), Box::new(r));
                }
                Some(Tok::Slash) => {
                    self.pos += 1;
                    self.deeper()?;
                    let r = self.valfactor()?;
                    e = ValExpr::Div(Box::new(e), Box::new(r));
                }
                _ => {
                    self.depth = depth;
                    return Ok(e);
                }
            }
        }
    }

    fn valfactor(&mut self) -> Result<ValExpr, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Minus) => {
                self.pos += 1;
                Ok(ValExpr::Neg(Box::new(self.nested(Self::valfactor)?)))
            }
            Some(Tok::Int(n)) => {
                self.pos += 1;
                Ok(ValExpr::Num(n as f64))
            }
            Some(Tok::Float(x)) => {
                self.pos += 1;
                Ok(ValExpr::Num(x))
            }
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                if self.peek() == Some(&Tok::LBracket) {
                    self.pos += 1;
                    let mut index = vec![self.idxexpr()?];
                    while self.peek() == Some(&Tok::Comma) {
                        self.pos += 1;
                        index.push(self.idxexpr()?);
                    }
                    self.expect(&Tok::RBracket, "`]`")?;
                    Ok(ValExpr::Ref(ARef { array: name, index }))
                } else {
                    Ok(ValExpr::Var(name))
                }
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let e = self.nested(Self::valexpr)?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(e)
            }
            _ => self.err("a value expression"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_program() {
        let prog = parse("for i := 1 to 9 do if A[i] > 0 then A[i] := B[i+1]; fi; od;").unwrap();
        assert_eq!(prog.len(), 1);
        let Stmt::For { var, lo, hi, body } = &prog[0] else {
            panic!()
        };
        assert_eq!((var.as_str(), *lo, *hi), ("i", 1, 9));
        let Stmt::If {
            lhs,
            op,
            rhs,
            body: inner,
        } = &body[0]
        else {
            panic!()
        };
        assert_eq!(lhs.array, "A");
        assert_eq!(*op, RelOp::Gt);
        assert_eq!(*rhs, 0.0);
        assert!(matches!(&inner[0], Stmt::Assign { .. }));
    }

    #[test]
    fn subscript_shapes() {
        let prog =
            parse("for i := 0 to 9 do A[2*i+1] := B[(i+6) mod 20] + C[i div 4]; od;").unwrap();
        let Stmt::For { body, .. } = &prog[0] else {
            panic!()
        };
        let Stmt::Assign { lhs, rhs } = &body[0] else {
            panic!()
        };
        assert_eq!(
            lhs.index,
            vec![IdxExpr::Add(
                Box::new(IdxExpr::Scale(2, Box::new(IdxExpr::Var("i".into())))),
                Box::new(IdxExpr::Num(1))
            )]
        );
        let text = rhs.to_string();
        assert!(text.contains("mod 20"), "{text}");
        assert!(text.contains("div 4"), "{text}");
    }

    #[test]
    fn squaring_subscript() {
        let prog = parse("for i := 0 to 9 do A[i*i] := 1; od;").unwrap();
        let Stmt::For { body, .. } = &prog[0] else {
            panic!()
        };
        let Stmt::Assign { lhs, .. } = &body[0] else {
            panic!()
        };
        assert!(matches!(lhs.index[0], IdxExpr::MulVar(_, _)));
    }

    #[test]
    fn value_precedence() {
        let prog = parse("for i := 0 to 3 do A[i] := 1 + 2 * B[i]; od;").unwrap();
        let Stmt::For { body, .. } = &prog[0] else {
            panic!()
        };
        let Stmt::Assign { rhs, .. } = &body[0] else {
            panic!()
        };
        assert_eq!(rhs.to_string(), "(1 + (2 * B[i]))");
    }

    #[test]
    fn negative_bounds_and_literals() {
        let prog = parse("for i := -3 to 3 do A[i] := -1.5; od;").unwrap();
        let Stmt::For { lo, hi, body, .. } = &prog[0] else {
            panic!()
        };
        assert_eq!((*lo, *hi), (-3, 3));
        let Stmt::Assign { rhs, .. } = &body[0] else {
            panic!()
        };
        assert_eq!(*rhs, ValExpr::Neg(Box::new(ValExpr::Num(1.5))));
    }

    #[test]
    fn error_reporting() {
        let err = parse("for i := 1 to 9 do A[i := 3; od;").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("expected"), "{msg}");
        assert!(parse("").is_err());
        assert!(
            parse("for i := 1 to 2 do od;").is_err() || parse("for i := 1 to 2 do od;").is_ok()
        );
    }

    #[test]
    fn multiple_statements() {
        let prog = parse("for i := 0 to 9 do A[i] := 0; od; for j := 0 to 9 do B[j] := A[j]; od;")
            .unwrap();
        assert_eq!(prog.len(), 2);
    }

    /// Parentheses, unary minus and left-nested chains count toward
    /// [`MAX_DEPTH`]: at the cap a program parses, one past it is a
    /// typed error (and 200 000 levels no longer overflow the stack).
    #[test]
    fn nesting_is_capped() {
        let parens = |n: usize| format!("V[i] := {}U[i]{};", "(".repeat(n), ")".repeat(n));
        let chain = |n: usize| format!("V[i] := U[i]{};", "+U[i]".repeat(n));
        let negs = |n: usize| format!("V[i] := {}U[i];", "-".repeat(n));
        let fors = |n: usize| {
            let head = "for i := 0 to 9 do ".repeat(n);
            format!("{head}V[i] := U[i];{}", " od;".repeat(n))
        };
        let at = |f: &dyn Fn(usize) -> String, huge| [f(MAX_DEPTH), f(MAX_DEPTH + 1), f(huge)];
        for (what, src) in [
            ("parens", at(&parens, 200_000)),
            ("chain", at(&chain, 200_000)),
            ("negs", at(&negs, 200_000)),
            ("fors", at(&fors, 20_000)),
        ] {
            assert!(parse(&src[0]).is_ok(), "{what} at the cap");
            for deep in &src[1..] {
                match parse(deep) {
                    Err(e @ ParseError::TooDeep { .. }) => {
                        assert!(e.to_string().contains("deeper than 256"), "{e}")
                    }
                    other => panic!("{what}: expected TooDeep, got {other:?}"),
                }
            }
        }
    }
}
