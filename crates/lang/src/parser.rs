//! Recursive-descent parser for the loop language.
//!
//! Grammar (keywords are ordinary identifiers with special meaning):
//!
//! ```text
//! loop    := ("doall" | "do") IDENT "from" bound "to" bound "{" stmt* "}"
//! bound   := NUMBER | IDENT
//! stmt    := target ":=" expr ";"
//! target  := IDENT "[" IDENT "]" | IDENT
//! expr    := "if" expr "then" expr "else" expr "end" | cmp
//! cmp     := add (("<" | "<=" | ">" | ">=" | "==" | "!=") add)?
//! add     := mul (("+" | "-") mul)*
//! mul     := unary (("*" | "/") unary)*
//! unary   := "-" unary | primary
//! primary := NUMBER
//!          | ("min" | "max") "(" expr "," expr ")"
//!          | "old" IDENT
//!          | IDENT ("[" IDENT (("+" | "-") NUMBER)? "]")?
//!          | "(" expr ")"
//! ```

use crate::ast::{BinOp, Expr, LoopAst, LoopKind, Stmt, Target};
use crate::error::{LangError, Span};
use crate::lexer::{lex, SpannedTok, Tok};

/// Parses one loop from `source`.
///
/// # Errors
///
/// Lexical errors and [`LangError::Expected`] diagnostics with source
/// spans.
///
/// # Example
///
/// ```
/// use tpn_lang::parser::parse;
/// let ast = parse("doall i from 1 to n { A[i] := X[i] + 5; }")?;
/// assert_eq!(ast.index, "i");
/// assert_eq!(ast.body.len(), 1);
/// # Ok::<(), tpn_lang::LangError>(())
/// ```
pub fn parse(source: &str) -> Result<LoopAst, LangError> {
    let toks = lex(source)?;
    let mut p = Parser { toks, pos: 0 };
    let ast = p.loop_decl()?;
    p.expect_eof()?;
    Ok(ast)
}

struct Parser<'a> {
    toks: Vec<SpannedTok<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> SpannedTok<'a> {
        self.toks[self.pos]
    }

    fn bump(&mut self) -> SpannedTok<'a> {
        let t = self.toks[self.pos];
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn expected(&self, what: &str) -> LangError {
        let cur = self.peek();
        LangError::Expected {
            expected: what.to_string(),
            found: cur.tok.to_string(),
            span: cur.span,
        }
    }

    fn eat(&mut self, tok: Tok<'_>, what: &str) -> Result<Span, LangError> {
        if self.peek().tok == tok {
            Ok(self.bump().span)
        } else {
            Err(self.expected(what))
        }
    }

    fn ident(&mut self, what: &str) -> Result<(&'a str, Span), LangError> {
        match self.peek().tok {
            Tok::Ident(s) => Ok((s, self.bump().span)),
            _ => Err(self.expected(what)),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<Span, LangError> {
        match self.peek().tok {
            Tok::Ident(s) if s == kw => Ok(self.bump().span),
            _ => Err(self.expected(&format!("`{kw}`"))),
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek().tok, Tok::Ident(s) if s == kw)
    }

    fn expect_eof(&self) -> Result<(), LangError> {
        if self.peek().tok == Tok::Eof {
            Ok(())
        } else {
            Err(self.expected("end of input"))
        }
    }

    fn loop_decl(&mut self) -> Result<LoopAst, LangError> {
        let kind = if self.peek_keyword("doall") {
            self.bump();
            LoopKind::Doall
        } else if self.peek_keyword("do") {
            self.bump();
            LoopKind::Do
        } else {
            return Err(self.expected("`doall` or `do`"));
        };
        let index = self.ident("loop index variable")?.0.to_string();
        self.keyword("from")?;
        self.bound()?;
        self.keyword("to")?;
        self.bound()?;
        self.eat(Tok::LBrace, "`{`")?;
        let mut body = Vec::new();
        while self.peek().tok != Tok::RBrace {
            body.push(self.stmt()?);
        }
        self.eat(Tok::RBrace, "`}`")?;
        Ok(LoopAst { kind, index, body })
    }

    /// Loop bounds are documentation only (the schedule is iteration-count
    /// independent): a number or a symbolic name.
    fn bound(&mut self) -> Result<(), LangError> {
        match self.peek().tok {
            Tok::Number(_) | Tok::Ident(_) => {
                self.bump();
                Ok(())
            }
            _ => Err(self.expected("a loop bound (number or name)")),
        }
    }

    fn stmt(&mut self) -> Result<Stmt, LangError> {
        if self.peek_keyword("if") {
            return self.if_stmt();
        }
        let (name, start_span) = self.ident("an assignment target")?;
        let name = name.to_string();
        let target = if self.peek().tok == Tok::LBracket {
            self.bump();
            self.ident("the loop index")?;
            self.eat(Tok::RBracket, "`]`")?;
            Target::Array { name }
        } else {
            Target::Scalar { name }
        };
        self.eat(Tok::Assign, "`:=`")?;
        let value = self.expr()?;
        let end = self.eat(Tok::Semi, "`;`")?;
        Ok(Stmt::Assign {
            target,
            value,
            span: start_span.merge(end),
        })
    }

    /// `if expr then stmt* else stmt* end [;]`
    fn if_stmt(&mut self) -> Result<Stmt, LangError> {
        let start = self.keyword("if")?;
        let cond = self.expr()?;
        self.keyword("then")?;
        let mut then = Vec::new();
        while !self.peek_keyword("else") {
            then.push(self.stmt()?);
        }
        self.keyword("else")?;
        let mut els = Vec::new();
        while !self.peek_keyword("end") {
            els.push(self.stmt()?);
        }
        let mut end = self.keyword("end")?;
        if self.peek().tok == Tok::Semi {
            end = self.bump().span;
        }
        Ok(Stmt::If {
            cond,
            then,
            els,
            span: start.merge(end),
        })
    }

    fn expr(&mut self) -> Result<Expr, LangError> {
        if self.peek_keyword("if") {
            let start = self.bump().span;
            let cond = self.expr()?;
            self.keyword("then")?;
            let then = self.expr()?;
            self.keyword("else")?;
            let els = self.expr()?;
            let end = self.keyword("end")?;
            return Ok(Expr::If {
                cond: Box::new(cond),
                then: Box::new(then),
                els: Box::new(els),
                span: start.merge(end),
            });
        }
        self.cmp()
    }

    fn cmp(&mut self) -> Result<Expr, LangError> {
        let lhs = self.add()?;
        let op = match self.peek().tok {
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            Tok::EqEq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add()?;
        let span = lhs.span().merge(rhs.span());
        Ok(Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
            span,
        })
    }

    fn add(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.mul()?;
        loop {
            let op = match self.peek().tok {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.mul()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
    }

    fn mul(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek().tok {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.unary()?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
    }

    fn unary(&mut self) -> Result<Expr, LangError> {
        if self.peek().tok == Tok::Minus {
            let start = self.bump().span;
            let expr = self.unary()?;
            let span = start.merge(expr.span());
            return Ok(Expr::Neg {
                expr: Box::new(expr),
                span,
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, LangError> {
        match self.peek().tok {
            Tok::Number(value) => {
                let span = self.bump().span;
                Ok(Expr::Number { value, span })
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.eat(Tok::RParen, "`)`")?;
                Ok(e)
            }
            Tok::Ident(name) if name == "min" || name == "max" => {
                let start = self.bump().span;
                self.eat(Tok::LParen, "`(`")?;
                let a = self.expr()?;
                self.eat(Tok::Comma, "`,`")?;
                let b = self.expr()?;
                let end = self.eat(Tok::RParen, "`)`")?;
                Ok(Expr::Binary {
                    op: if name == "min" {
                        BinOp::Min
                    } else {
                        BinOp::Max
                    },
                    lhs: Box::new(a),
                    rhs: Box::new(b),
                    span: start.merge(end),
                })
            }
            Tok::Ident("old") => {
                let start = self.bump().span;
                let (name, end) = self.ident("a scalar name after `old`")?;
                Ok(Expr::Scalar {
                    name: name.to_string(),
                    old: true,
                    span: start.merge(end),
                })
            }
            Tok::Ident(name) => {
                let start = self.bump().span;
                if self.peek().tok == Tok::LBracket {
                    self.bump();
                    let var = self.ident("a subscript variable")?.0.to_string();
                    let mut offset = 0i64;
                    match self.peek().tok {
                        Tok::Plus | Tok::Minus => {
                            let neg = self.peek().tok == Tok::Minus;
                            self.bump();
                            match self.peek().tok {
                                Tok::Number(n) if n.fract() == 0.0 => {
                                    self.bump();
                                    offset = if neg { -(n as i64) } else { n as i64 };
                                }
                                _ => return Err(self.expected("an integer offset")),
                            }
                        }
                        _ => {}
                    }
                    let end = self.eat(Tok::RBracket, "`]`")?;
                    Ok(Expr::ArrayRef {
                        array: name.to_string(),
                        var,
                        offset,
                        span: start.merge(end),
                    })
                } else {
                    Ok(Expr::Scalar {
                        name: name.to_string(),
                        old: false,
                        span: start,
                    })
                }
            }
            _ => Err(self.expected("an expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_l1() {
        let ast = parse(
            "doall i from 1 to n {\
               A[i] := X[i] + 5;\
               B[i] := Y[i] + A[i];\
               C[i] := A[i] + Z[i];\
               D[i] := B[i] + C[i];\
               E[i] := W[i] + D[i];\
             }",
        )
        .unwrap();
        assert_eq!(ast.kind, LoopKind::Doall);
        assert_eq!(ast.body.len(), 5);
        assert!(matches!(
            &ast.body[0],
            Stmt::Assign { target: Target::Array { name }, .. } if name == "A"
        ));
    }

    #[test]
    fn parses_offsets_and_old() {
        let ast = parse("do i from 1 to n { Q := old Q + Z[i+10] * X[i-1]; }").unwrap();
        let Stmt::Assign { value, .. } = &ast.body[0] else {
            panic!("expected assignment")
        };
        let Expr::Binary {
            op: BinOp::Add,
            lhs,
            rhs,
            ..
        } = value
        else {
            panic!("expected +")
        };
        assert!(matches!(**lhs, Expr::Scalar { old: true, .. }));
        let Expr::Binary {
            op: BinOp::Mul,
            lhs: z,
            rhs: x,
            ..
        } = &**rhs
        else {
            panic!("expected *")
        };
        assert!(matches!(**z, Expr::ArrayRef { offset: 10, .. }));
        assert!(matches!(**x, Expr::ArrayRef { offset: -1, .. }));
    }

    #[test]
    fn precedence_mul_over_add() {
        let ast = parse("do i from 1 to n { A[i] := 1 + 2 * 3; }").unwrap();
        let Stmt::Assign { value, .. } = &ast.body[0] else {
            panic!("expected assignment")
        };
        let Expr::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = value
        else {
            panic!("expected + at top");
        };
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parses_conditional_and_comparison() {
        let ast =
            parse("do i from 1 to n { R[i] := if X[i] > 0 then X[i] else -X[i] end; }").unwrap();
        let Stmt::Assign { value, .. } = &ast.body[0] else {
            panic!("expected assignment")
        };
        let Expr::If { cond, els, .. } = value else {
            panic!("expected if");
        };
        assert!(matches!(**cond, Expr::Binary { op: BinOp::Gt, .. }));
        assert!(matches!(**els, Expr::Neg { .. }));
    }

    #[test]
    fn parses_min_max_calls() {
        let ast = parse("do i from 1 to n { M[i] := min(X[i], max(Y[i], 0)); }").unwrap();
        let Stmt::Assign { value, .. } = &ast.body[0] else {
            panic!("expected assignment")
        };
        let Expr::Binary {
            op: BinOp::Min,
            rhs,
            ..
        } = value
        else {
            panic!("expected min");
        };
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Max, .. }));
    }

    #[test]
    fn parses_parenthesised_groups() {
        let ast = parse("do i from 1 to n { X2[i] := Z[i] * (Y[i] - X2[i-1]); }").unwrap();
        let Stmt::Assign { value, .. } = &ast.body[0] else {
            panic!("expected assignment")
        };
        let Expr::Binary {
            op: BinOp::Mul,
            rhs,
            ..
        } = value
        else {
            panic!("expected *");
        };
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Sub, .. }));
    }

    #[test]
    fn missing_semicolon_is_reported() {
        match parse("do i from 1 to n { A[i] := 1 }") {
            Err(LangError::Expected { expected, .. }) => assert_eq!(expected, "`;`"),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn trailing_tokens_are_rejected() {
        assert!(matches!(
            parse("do i from 1 to n { } extra"),
            Err(LangError::Expected { .. })
        ));
    }

    #[test]
    fn symbolic_bounds_accepted() {
        assert!(parse("do k from lo to hi { A[k] := 1; }").is_ok());
    }

    #[test]
    fn parses_if_statements() {
        let ast = parse(
            "do i from 1 to n { if X[i] > 0 then A[i] := 1; else A[i] := 2; end B[i] := A[i]; }",
        )
        .unwrap();
        assert_eq!(ast.body.len(), 2);
        let Stmt::If { then, els, .. } = &ast.body[0] else {
            panic!("expected if statement");
        };
        assert_eq!(then.len(), 1);
        assert_eq!(els.len(), 1);
        // Optional trailing semicolon after `end`.
        assert!(
            parse("do i from 1 to n { if X[i] > 0 then A[i] := 1; else A[i] := 2; end; }").is_ok()
        );
        // Nested.
        assert!(parse(
            "do i from 1 to n { if X[i] > 0 then if X[i] > 9 then A[i] := 2; else A[i] := 1; end else A[i] := 0; end }"
        )
        .is_ok());
    }

    #[test]
    fn unterminated_if_statement_is_an_error() {
        assert!(parse("do i from 1 to n { if X[i] > 0 then A[i] := 1; }").is_err());
    }

    #[test]
    fn wrong_loop_keyword_rejected() {
        assert!(matches!(
            parse("for i from 1 to n { }"),
            Err(LangError::Expected { .. })
        ));
    }
}
