//! C token definitions.

use std::fmt;

/// Punctuators and operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // names mirror the C spelling below
pub enum Punct {
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Arrow,
    Inc,
    Dec,
    Amp,
    Star,
    Plus,
    Minus,
    Tilde,
    Bang,
    Slash,
    Percent,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    Ne,
    Caret,
    Pipe,
    AndAnd,
    OrOr,
    Question,
    Colon,
    Assign,
    StarAssign,
    SlashAssign,
    PercentAssign,
    PlusAssign,
    MinusAssign,
    ShlAssign,
    ShrAssign,
    AmpAssign,
    CaretAssign,
    PipeAssign,
    Ellipsis,
}

impl Punct {
    /// The C spelling of this punctuator.
    pub fn as_str(self) -> &'static str {
        use Punct::*;
        match self {
            LParen => "(",
            RParen => ")",
            LBrace => "{",
            RBrace => "}",
            LBracket => "[",
            RBracket => "]",
            Semi => ";",
            Comma => ",",
            Dot => ".",
            Arrow => "->",
            Inc => "++",
            Dec => "--",
            Amp => "&",
            Star => "*",
            Plus => "+",
            Minus => "-",
            Tilde => "~",
            Bang => "!",
            Slash => "/",
            Percent => "%",
            Shl => "<<",
            Shr => ">>",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            EqEq => "==",
            Ne => "!=",
            Caret => "^",
            Pipe => "|",
            AndAnd => "&&",
            OrOr => "||",
            Question => "?",
            Colon => ":",
            Assign => "=",
            StarAssign => "*=",
            SlashAssign => "/=",
            PercentAssign => "%=",
            PlusAssign => "+=",
            MinusAssign => "-=",
            ShlAssign => "<<=",
            ShrAssign => ">>=",
            AmpAssign => "&=",
            CaretAssign => "^=",
            PipeAssign => "|=",
            Ellipsis => "...",
        }
    }
}

/// The kinds of C tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CTok {
    /// Identifier or keyword (keywords are recognised by the parser).
    Ident(String),
    /// Integer constant; `text` preserves the exact spelling for mutation.
    Int {
        /// Parsed value.
        value: u64,
        /// Original spelling including any suffix.
        text: String,
    },
    /// Character constant, already decoded.
    Char(u8),
    /// String literal, already unescaped.
    Str(String),
    /// A punctuator.
    Punct(Punct),
    /// A `#` introducing a preprocessor directive (start of line only).
    Hash,
    /// End of input.
    Eof,
}

impl fmt::Display for CTok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CTok::Ident(s) => write!(f, "`{s}`"),
            CTok::Int { text, .. } => write!(f, "`{text}`"),
            CTok::Char(c) => write!(f, "'{}'", *c as char),
            CTok::Str(s) => write!(f, "\"{s}\""),
            CTok::Punct(p) => write!(f, "`{}`", p.as_str()),
            CTok::Hash => f.write_str("`#`"),
            CTok::Eof => f.write_str("end of input"),
        }
    }
}

/// A token with its origin (for diagnostics and `__LINE__`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CToken {
    /// The token itself.
    pub tok: CTok,
    /// The source file, as its index in the unit's file table (the list
    /// [`crate::pp::preprocess`] returns; 0 for the main file). Also the
    /// file half of packed line ids.
    pub file_id: u16,
    /// 1-based line in that file (use-site line for macro expansions).
    pub line: u32,
    /// Byte offset in the original source (pre-expansion tokens only;
    /// 0 for synthesised tokens). Used by the mutation engine.
    pub pos: usize,
    /// Byte length in the original source (0 for synthesised tokens).
    pub len: usize,
}

impl CToken {
    /// A synthesised token carrying position metadata from `like`.
    pub fn synthesized(tok: CTok, like: &CToken) -> Self {
        CToken {
            tok,
            file_id: like.file_id,
            line: like.line,
            pos: 0,
            len: 0,
        }
    }

    /// The packed `(file, line)` id of this token (see [`pack_line`]).
    pub fn packed_line(&self) -> u32 {
        pack_line(self.file_id, self.line)
    }
}

/// Pack a file id and a 1-based line into one `u32` — the representation
/// AST nodes carry, so the interpreter's line coverage distinguishes
/// identical line numbers in different files (driver vs. generated header).
pub fn pack_line(file_id: u16, line: u32) -> u32 {
    ((file_id as u32) << 20) | (line & 0xF_FFFF)
}

/// Invert [`pack_line`].
pub fn unpack_line(packed: u32) -> (u16, u32) {
    ((packed >> 20) as u16, packed & 0xF_FFFF)
}
