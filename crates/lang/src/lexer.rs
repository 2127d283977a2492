//! Tokeniser for the loop language.
//!
//! Tokens borrow their identifiers from the source, so lexing allocates
//! only the token vector, and a [`SpannedTok`] is `Copy`.

use crate::error::{LangError, Span};

/// A lexical token.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Tok<'a> {
    /// An identifier or keyword, borrowed from the source.
    Ident(&'a str),
    /// A numeric literal.
    Number(f64),
    /// `:=`
    Assign,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// End of input.
    Eof,
}

impl std::fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier {s:?}"),
            Tok::Number(n) => write!(f, "number {n}"),
            Tok::Assign => f.write_str("`:=`"),
            Tok::Semi => f.write_str("`;`"),
            Tok::Comma => f.write_str("`,`"),
            Tok::LParen => f.write_str("`(`"),
            Tok::RParen => f.write_str("`)`"),
            Tok::LBrace => f.write_str("`{`"),
            Tok::RBrace => f.write_str("`}`"),
            Tok::LBracket => f.write_str("`[`"),
            Tok::RBracket => f.write_str("`]`"),
            Tok::Plus => f.write_str("`+`"),
            Tok::Minus => f.write_str("`-`"),
            Tok::Star => f.write_str("`*`"),
            Tok::Slash => f.write_str("`/`"),
            Tok::Lt => f.write_str("`<`"),
            Tok::Le => f.write_str("`<=`"),
            Tok::Gt => f.write_str("`>`"),
            Tok::Ge => f.write_str("`>=`"),
            Tok::EqEq => f.write_str("`==`"),
            Tok::Ne => f.write_str("`!=`"),
            Tok::Eof => f.write_str("end of input"),
        }
    }
}

/// A token with its source span.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpannedTok<'a> {
    /// The token.
    pub tok: Tok<'a>,
    /// Where it came from.
    pub span: Span,
}

/// Tokenises `source`. `//` comments run to end of line.
///
/// # Errors
///
/// [`LangError::UnexpectedChar`] and [`LangError::BadNumber`].
pub fn lex(source: &str) -> Result<Vec<SpannedTok<'_>>, LangError> {
    let bytes = source.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            ':' if bytes.get(i + 1) == Some(&b'=') => {
                toks.push(SpannedTok {
                    tok: Tok::Assign,
                    span: Span::new(start, start + 2),
                });
                i += 2;
            }
            ';' => {
                toks.push(tok1(Tok::Semi, start));
                i += 1;
            }
            ',' => {
                toks.push(tok1(Tok::Comma, start));
                i += 1;
            }
            '(' => {
                toks.push(tok1(Tok::LParen, start));
                i += 1;
            }
            ')' => {
                toks.push(tok1(Tok::RParen, start));
                i += 1;
            }
            '{' => {
                toks.push(tok1(Tok::LBrace, start));
                i += 1;
            }
            '}' => {
                toks.push(tok1(Tok::RBrace, start));
                i += 1;
            }
            '[' => {
                toks.push(tok1(Tok::LBracket, start));
                i += 1;
            }
            ']' => {
                toks.push(tok1(Tok::RBracket, start));
                i += 1;
            }
            '+' => {
                toks.push(tok1(Tok::Plus, start));
                i += 1;
            }
            '-' => {
                toks.push(tok1(Tok::Minus, start));
                i += 1;
            }
            '*' => {
                toks.push(tok1(Tok::Star, start));
                i += 1;
            }
            '/' => {
                toks.push(tok1(Tok::Slash, start));
                i += 1;
            }
            '<' | '>' | '=' | '!' => {
                let two = bytes.get(i + 1) == Some(&b'=');
                let tok = match (c, two) {
                    ('<', true) => Tok::Le,
                    ('<', false) => Tok::Lt,
                    ('>', true) => Tok::Ge,
                    ('>', false) => Tok::Gt,
                    ('=', true) => Tok::EqEq,
                    ('!', true) => Tok::Ne,
                    _ => {
                        return Err(LangError::UnexpectedChar {
                            ch: c,
                            span: Span::new(start, start + 1),
                        })
                    }
                };
                let len = if two { 2 } else { 1 };
                toks.push(SpannedTok {
                    tok,
                    span: Span::new(start, start + len),
                });
                i += len;
            }
            _ if c.is_ascii_digit() => {
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'e'
                        || bytes[i] == b'E'
                        || ((bytes[i] == b'+' || bytes[i] == b'-')
                            && matches!(bytes.get(i.wrapping_sub(1)), Some(b'e') | Some(b'E'))))
                {
                    i += 1;
                }
                let text = &source[start..i];
                let value = text.parse::<f64>().map_err(|_| LangError::BadNumber {
                    text: text.to_string(),
                    span: Span::new(start, i),
                })?;
                toks.push(SpannedTok {
                    tok: Tok::Number(value),
                    span: Span::new(start, i),
                });
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                toks.push(SpannedTok {
                    tok: Tok::Ident(&source[start..i]),
                    span: Span::new(start, i),
                });
            }
            _ => {
                return Err(LangError::UnexpectedChar {
                    ch: c,
                    span: Span::new(start, start + 1),
                })
            }
        }
    }
    toks.push(SpannedTok {
        tok: Tok::Eof,
        span: Span::new(source.len(), source.len()),
    });
    Ok(toks)
}

fn tok1(tok: Tok<'_>, start: usize) -> SpannedTok<'_> {
    SpannedTok {
        tok,
        span: Span::new(start, start + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_assignment_statement() {
        let toks = kinds("A[i] := X[i] + 5;");
        assert_eq!(
            toks,
            vec![
                Tok::Ident("A"),
                Tok::LBracket,
                Tok::Ident("i"),
                Tok::RBracket,
                Tok::Assign,
                Tok::Ident("X"),
                Tok::LBracket,
                Tok::Ident("i"),
                Tok::RBracket,
                Tok::Plus,
                Tok::Number(5.0),
                Tok::Semi,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lexes_comparisons() {
        assert_eq!(
            kinds("< <= > >= == !="),
            vec![
                Tok::Lt,
                Tok::Le,
                Tok::Gt,
                Tok::Ge,
                Tok::EqEq,
                Tok::Ne,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // comment\n b"),
            vec![Tok::Ident("a"), Tok::Ident("b"), Tok::Eof]
        );
    }

    #[test]
    fn numbers_with_exponents() {
        assert_eq!(kinds("1.5e-3"), vec![Tok::Number(1.5e-3), Tok::Eof]);
        assert_eq!(kinds("2E4"), vec![Tok::Number(2e4), Tok::Eof]);
    }

    #[test]
    fn unexpected_character_reported_with_span() {
        match lex("a $ b") {
            Err(LangError::UnexpectedChar { ch: '$', span }) => {
                assert_eq!(span.start, 2);
            }
            other => panic!("expected UnexpectedChar, got {other:?}"),
        }
    }

    #[test]
    fn bad_number_reported() {
        assert!(matches!(lex("1.2.3"), Err(LangError::BadNumber { .. })));
    }

    #[test]
    fn spans_cover_tokens() {
        let toks = lex("ab := 12").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 5));
        assert_eq!(toks[2].span, Span::new(6, 8));
    }
}
