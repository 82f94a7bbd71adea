//! Lexer for the §5 surface syntax.

use crate::error::LangError;
use std::fmt;

/// Tokens of the mini-language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// Keyword `SELECT` (case-insensitive).
    Select,
    /// Keyword `ALL`.
    All,
    /// Keyword `FROM`.
    From,
    /// Keyword `WHERE`.
    Where,
    /// Keyword `AND`.
    And,
    /// Keyword `AS`.
    As,
    /// Identifier (letters, digits, `_`, `#` after the first char).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Single-quoted string literal.
    Str(String),
    /// `*` (UnNest).
    Star,
    /// `-->` or `->` (Link via).
    Arrow,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// Comparison operator.
    Cmp(fro_algebra::CmpOp),
    /// End of input.
    Eof,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Select => write!(f, "SELECT"),
            Token::All => write!(f, "ALL"),
            Token::From => write!(f, "FROM"),
            Token::Where => write!(f, "WHERE"),
            Token::And => write!(f, "AND"),
            Token::As => write!(f, "AS"),
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(v) => write!(f, "{v}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Star => write!(f, "*"),
            Token::Arrow => write!(f, "-->"),
            Token::Comma => write!(f, ","),
            Token::Dot => write!(f, "."),
            Token::Cmp(op) => write!(f, "{op}"),
            Token::Eof => write!(f, "<eof>"),
        }
    }
}

/// Tokenize source text.
///
/// Works over `char`s, so any non-ASCII character outside a string
/// literal is a clean [`LangError::Lex`] at its byte offset, never a
/// slice through a UTF-8 sequence; string literals take any UTF-8.
///
/// # Errors
/// [`LangError::Lex`] on unexpected characters or unterminated
/// strings.
pub fn lex(src: &str) -> Result<Vec<Token>, LangError> {
    use fro_algebra::CmpOp;
    let mut chars = src.char_indices().peekable();
    let mut out = Vec::new();
    // Consume the next char when it is `want`.
    fn eat(chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>, want: char) -> bool {
        chars.next_if(|&(_, c)| c == want).is_some()
    }
    while let Some((i, c)) = chars.next() {
        match c {
            c if c.is_whitespace() => {}
            ',' => out.push(Token::Comma),
            '.' => out.push(Token::Dot),
            '*' => out.push(Token::Star),
            '=' => out.push(Token::Cmp(CmpOp::Eq)),
            '<' => out.push(Token::Cmp(if eat(&mut chars, '=') {
                CmpOp::Le
            } else if eat(&mut chars, '>') {
                CmpOp::Ne
            } else {
                CmpOp::Lt
            })),
            '>' => out.push(Token::Cmp(if eat(&mut chars, '=') {
                CmpOp::Ge
            } else {
                CmpOp::Gt
            })),
            '-' => {
                // `-->` or `->`
                if src[i..].starts_with("-->") {
                    chars.nth(1);
                    out.push(Token::Arrow);
                } else if eat(&mut chars, '>') {
                    out.push(Token::Arrow);
                } else if src[i + 1..].starts_with(|d: char| d.is_ascii_digit()) {
                    let end = span_end(src, i + 1, |d| d.is_ascii_digit());
                    out.push(Token::Int(-lex_int(src, i + 1, end)?));
                    skip_to(&mut chars, end);
                } else {
                    return Err(LangError::Lex {
                        at: i,
                        msg: "expected `-->`, `->`, or a negative number".into(),
                    });
                }
            }
            '\'' => {
                let start = i + 1;
                let Some(len) = src[start..].find('\'') else {
                    return Err(LangError::Lex {
                        at: i,
                        msg: "unterminated string literal".into(),
                    });
                };
                out.push(Token::Str(src[start..start + len].to_owned()));
                skip_to(&mut chars, start + len + 1);
            }
            c if c.is_ascii_digit() => {
                let end = span_end(src, i, |d| d.is_ascii_digit());
                out.push(Token::Int(lex_int(src, i, end)?));
                skip_to(&mut chars, end);
            }
            c if c.is_ascii_alphabetic() || c == '_' || c == '@' => {
                let end = span_end(src, i, |d| {
                    d.is_ascii_alphanumeric() || d == '_' || d == '#' || d == '@'
                });
                let word = &src[i..end];
                out.push(match word.to_ascii_uppercase().as_str() {
                    "SELECT" => Token::Select,
                    "ALL" => Token::All,
                    "FROM" => Token::From,
                    "WHERE" => Token::Where,
                    "AND" => Token::And,
                    "AS" => Token::As,
                    _ => Token::Ident(word.to_owned()),
                });
                skip_to(&mut chars, end);
            }
            other => {
                return Err(LangError::Lex {
                    at: i,
                    msg: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    out.push(Token::Eof);
    Ok(out)
}

/// The byte offset where the run of `keep` chars starting at `start`
/// ends.
fn span_end(src: &str, start: usize, keep: impl Fn(char) -> bool) -> usize {
    src[start..]
        .find(|c: char| !keep(c))
        .map_or(src.len(), |n| start + n)
}

/// Advance `chars` past every char before byte offset `end`.
fn skip_to(chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>, end: usize) {
    while chars.next_if(|&(k, _)| k < end).is_some() {}
}

fn lex_int(src: &str, start: usize, end: usize) -> Result<i64, LangError> {
    src[start..end].parse::<i64>().map_err(|e| LangError::Lex {
        at: start,
        msg: format!("bad integer: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fro_algebra::CmpOp;

    #[test]
    fn lexes_the_paper_queretaro_query() {
        let toks = lex("Select All From EMPLOYEE*ChildName, DEPARTMENT \
             Where EMPLOYEE.D# = DEPARTMENT.D# and DEPARTMENT.Location = 'Queretaro'")
        .unwrap();
        assert!(toks.contains(&Token::Star));
        assert!(toks.contains(&Token::Ident("D#".into())));
        assert!(toks.contains(&Token::Str("Queretaro".into())));
        assert_eq!(toks.last(), Some(&Token::Eof));
    }

    #[test]
    fn lexes_arrows_both_spellings() {
        let t1 = lex("DEPARTMENT-->Manager").unwrap();
        let t2 = lex("DEPARTMENT->Manager").unwrap();
        assert!(t1.contains(&Token::Arrow));
        assert!(t2.contains(&Token::Arrow));
    }

    #[test]
    fn lexes_comparisons() {
        let toks = lex("a < b <= c > d >= e <> f = g").unwrap();
        let cmps: Vec<_> = toks
            .iter()
            .filter_map(|t| match t {
                Token::Cmp(op) => Some(*op),
                _ => None,
            })
            .collect();
        assert_eq!(
            cmps,
            vec![
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
                CmpOp::Ne,
                CmpOp::Eq
            ]
        );
    }

    #[test]
    fn lexes_numbers_including_negative() {
        let toks = lex("Rank > 10 and X = -5").unwrap();
        assert!(toks.contains(&Token::Int(10)));
        assert!(toks.contains(&Token::Int(-5)));
    }

    #[test]
    fn keywords_case_insensitive() {
        let toks = lex("select ALL fRoM x").unwrap();
        assert_eq!(toks[0], Token::Select);
        assert_eq!(toks[1], Token::All);
        assert_eq!(toks[2], Token::From);
    }

    #[test]
    fn non_ascii_outside_a_string_is_a_located_lex_error() {
        // Each used to slice through the middle of a UTF-8 sequence.
        let src = "Select All From EMPLOYÉ";
        let at = src.find('É').unwrap();
        assert!(matches!(lex(src), Err(LangError::Lex { at: a, .. }) if a == at));
        let src = "Select All From DEPARTMENT Where DEPARTMENT.Location ≠ 'x'";
        let at = src.find('≠').unwrap();
        assert!(matches!(lex(src), Err(LangError::Lex { at: a, .. }) if a == at));
        assert!(matches!(
            crate::parse(src),
            Err(LangError::Lex { at: a, .. }) if a == at
        ));
        // String literals still take any UTF-8.
        let toks = lex("Where E.Name = 'Zoë' and E.Rank >= -3").unwrap();
        assert!(toks.contains(&Token::Str("Zoë".into())));
        assert!(toks.contains(&Token::Int(-3)));
        assert!(toks.contains(&Token::Cmp(CmpOp::Ge)));
    }

    #[test]
    fn errors_are_located() {
        assert!(matches!(lex("a ? b"), Err(LangError::Lex { at: 2, .. })));
        assert!(matches!(lex("'open"), Err(LangError::Lex { .. })));
        assert!(matches!(lex("a - b"), Err(LangError::Lex { .. })));
    }
}
