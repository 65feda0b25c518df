//! Recursive-descent parser from the token stream to the lint AST.
//!
//! The parser is layered on [`crate::tokenizer`] and produces
//! [`crate::ast`] nodes. It aims for *coverage of this workspace's Rust*,
//! not the full grammar: generics are skipped over (balanced `<…>`), types
//! are captured as normalized text, patterns are summarized to their
//! binding names, and macro bodies are re-parsed as expression lists on a
//! best-effort basis. Anything truly unexpected raises a [`ParseError`]
//! with the offending span, and the engine reports the file as a
//! violation, so a parser gap can never hide a whole file from linting.

use crate::ast::*;
use crate::tokenizer::{Lexed, Token, TokenKind};

/// A fatal parse error for one file.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// Where parsing failed.
    pub span: Span,
    /// What the parser expected / saw.
    pub message: String,
}

/// Parses a lexed file into an AST.
///
/// # Errors
///
/// Returns the first unrecoverable syntax error; callers fall back to the
/// token engine.
pub fn parse_file(lexed: &Lexed) -> Result<File, ParseError> {
    let mut p = Parser {
        toks: &lexed.tokens,
        pos: 0,
    };
    // Skip any inner attributes / doc comments at file head.
    let items = p.parse_items(false)?;
    Ok(File { items })
}

struct Parser<'t> {
    toks: &'t [Token],
    pos: usize,
}

impl<'t> Parser<'t> {
    // ----- token helpers ---------------------------------------------------

    fn peek(&self) -> Option<&'t Token> {
        self.toks.get(self.pos)
    }

    fn peek_n(&self, n: usize) -> Option<&'t Token> {
        self.toks.get(self.pos + n)
    }

    fn bump(&mut self) -> Option<&'t Token> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_op(&self, s: &str) -> bool {
        matches!(self.peek(), Some(t) if t.kind == TokenKind::Op && t.text == s)
    }

    fn at_op_n(&self, n: usize, s: &str) -> bool {
        matches!(self.peek_n(n), Some(t) if t.kind == TokenKind::Op && t.text == s)
    }

    fn at_kw(&self, s: &str) -> bool {
        matches!(self.peek(), Some(t) if t.kind == TokenKind::Ident && t.text == s)
    }

    fn at_kw_n(&self, n: usize, s: &str) -> bool {
        matches!(self.peek_n(n), Some(t) if t.kind == TokenKind::Ident && t.text == s)
    }

    fn eat_op(&mut self, s: &str) -> bool {
        if self.at_op(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, s: &str) -> bool {
        if self.at_kw(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_op(&mut self, s: &str) -> Result<Span, ParseError> {
        if self.at_op(s) {
            let sp = self.cur_span();
            self.pos += 1;
            Ok(sp)
        } else {
            Err(self.error(format!("expected `{s}`")))
        }
    }

    fn cur_span(&self) -> Span {
        match self.peek() {
            Some(t) => tok_span(t),
            None => self
                .toks
                .last()
                .map(|t| Span {
                    start: t.end,
                    end: t.end,
                    line: t.line,
                })
                .unwrap_or_default(),
        }
    }

    fn prev_span(&self) -> Span {
        self.pos
            .checked_sub(1)
            .and_then(|i| self.toks.get(i))
            .map(tok_span)
            .unwrap_or_default()
    }

    fn error(&self, message: String) -> ParseError {
        let got = match self.peek() {
            Some(t) if t.kind == TokenKind::Str => "string literal".to_string(),
            Some(t) => format!("`{}`", t.text),
            None => "end of file".to_string(),
        };
        ParseError {
            span: self.cur_span(),
            message: format!("{message}, found {got}"),
        }
    }

    /// Consumes one balanced token run starting at an opening delimiter.
    fn skip_balanced(&mut self) -> Result<(), ParseError> {
        let open = match self.peek() {
            Some(t) if t.kind == TokenKind::Op => t.text.as_str(),
            _ => return Err(self.error("expected an opening delimiter".into())),
        };
        let close = match open {
            "(" => ")",
            "[" => "]",
            "{" => "}",
            _ => return Err(self.error("expected an opening delimiter".into())),
        };
        let mut depth = 0i64;
        while let Some(t) = self.bump() {
            if t.kind == TokenKind::Op {
                if t.text == open {
                    depth += 1;
                } else if t.text == close {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(());
                    }
                } else {
                    // Other delimiter kinds nest independently.
                    match t.text.as_str() {
                        "(" | "[" | "{" => {
                            self.pos -= 1;
                            self.skip_balanced()?;
                        }
                        _ => {}
                    }
                }
            }
        }
        Err(ParseError {
            span: self.prev_span(),
            message: format!("unclosed `{open}`"),
        })
    }

    /// Skips a generics list starting at `<`, handling `>>` closing two.
    fn skip_angles(&mut self) -> Result<(), ParseError> {
        let mut depth = 0i64;
        loop {
            let Some(t) = self.peek() else {
                return Err(self.error("unclosed `<`".into()));
            };
            match (t.kind, t.text.as_str()) {
                (TokenKind::Op, "<") => depth += 1,
                (TokenKind::Op, "<<") => depth += 2,
                (TokenKind::Op, ">") => depth -= 1,
                (TokenKind::Op, ">>") => depth -= 2,
                (TokenKind::Op, ">=") => depth -= 1,
                (TokenKind::Op, "(" | "[" | "{") => {
                    self.skip_balanced()?;
                    continue;
                }
                (TokenKind::Op, ";") => return Err(self.error("unclosed `<`".into())),
                _ => {}
            }
            self.pos += 1;
            if depth <= 0 {
                return Ok(());
            }
        }
    }

    // ----- attributes ------------------------------------------------------

    /// Parses `#[…]` / `#![…]` attribute runs. Returns (attrs, any-test-gate).
    fn parse_attrs(&mut self) -> Result<(Vec<Attr>, bool), ParseError> {
        let mut attrs = Vec::new();
        let mut gated = false;
        while self.at_op("#") {
            let start = self.cur_span();
            self.pos += 1;
            self.eat_op("!");
            if !self.at_op("[") {
                return Err(self.error("expected `[` after `#`".into()));
            }
            // Scan the attribute body for the test-gate heuristic while
            // consuming it balanced.
            let body_start = self.pos;
            self.skip_balanced()?;
            let mut has_test = false;
            let mut has_not = false;
            for t in &self.toks[body_start..self.pos] {
                if t.kind == TokenKind::Ident {
                    match t.text.as_str() {
                        "test" => has_test = true,
                        "not" => has_not = true,
                        _ => {}
                    }
                }
            }
            let test_gate = has_test && !has_not;
            gated |= test_gate;
            attrs.push(Attr {
                test_gate,
                span: start.to(self.prev_span()),
            });
        }
        Ok((attrs, gated))
    }

    // ----- items -----------------------------------------------------------

    fn parse_items(&mut self, inside_braces: bool) -> Result<Vec<Item>, ParseError> {
        let mut items = Vec::new();
        loop {
            if inside_braces && self.at_op("}") {
                return Ok(items);
            }
            if self.peek().is_none() {
                if inside_braces {
                    return Err(self.error("expected `}`".into()));
                }
                return Ok(items);
            }
            if self.eat_op(";") {
                continue;
            }
            items.push(self.parse_item()?);
        }
    }

    fn parse_item(&mut self) -> Result<Item, ParseError> {
        let start = self.cur_span();
        let (_attrs, test_gated) = self.parse_attrs()?;
        // Visibility.
        if self.eat_kw("pub") && self.at_op("(") {
            self.skip_balanced()?;
        }
        // Leading qualifiers before the defining keyword.
        let mut qualified = true;
        while qualified {
            qualified = false;
            for q in ["default", "async"] {
                if self.at_kw(q) && self.peek_n(1).is_some_and(|t| t.kind == TokenKind::Ident) {
                    self.pos += 1;
                    qualified = true;
                }
            }
            // `unsafe fn` / `unsafe impl` / `unsafe trait` / `unsafe extern`.
            if self.at_kw("unsafe")
                && (self.at_kw_n(1, "fn")
                    || self.at_kw_n(1, "impl")
                    || self.at_kw_n(1, "trait")
                    || self.at_kw_n(1, "extern"))
            {
                self.pos += 1;
                qualified = true;
            }
            // `const fn` (but not `const NAME: …`).
            if self.at_kw("const") && (self.at_kw_n(1, "fn") || self.at_kw_n(1, "unsafe")) {
                self.pos += 1;
                qualified = true;
            }
            // `extern "C" fn`.
            if self.at_kw("extern")
                && self.peek_n(1).is_some_and(|t| t.kind == TokenKind::Str)
                && self.at_kw_n(2, "fn")
            {
                self.pos += 2;
                qualified = true;
            }
        }

        let kind = if self.at_kw("fn") {
            self.parse_fn()?
        } else if self.at_kw("use") {
            self.parse_use()?
        } else if self.at_kw("struct") || self.at_kw("enum") || self.at_kw("union") {
            self.parse_typedef()?
        } else if self.at_kw("type") {
            self.parse_type_alias()?
        } else if self.at_kw("const") || self.at_kw("static") {
            self.parse_const_static()?
        } else if self.at_kw("impl") {
            self.parse_impl()?
        } else if self.at_kw("trait") {
            self.parse_trait()?
        } else if self.at_kw("mod") {
            self.parse_mod()?
        } else if self.at_kw("macro_rules") {
            self.parse_macro_rules()?
        } else if self.at_kw("extern") {
            // `extern crate x;` or an `extern { … }` block.
            self.pos += 1;
            if self.eat_kw("crate") {
                self.expect_ident()?;
                self.eat_kw("as").then(|| self.bump());
                self.expect_op(";")?;
                ItemKind::Opaque
            } else {
                if self.peek().is_some_and(|t| t.kind == TokenKind::Str) {
                    self.pos += 1;
                }
                if self.at_op("{") {
                    self.skip_balanced()?;
                }
                ItemKind::Opaque
            }
        } else if self.peek().is_some_and(|t| t.kind == TokenKind::Ident) && self.at_op_n(1, "!") {
            // Item-position macro invocation: `name! { … }` / `name!(…);`.
            let mac = self.parse_macro_call()?;
            self.eat_op(";");
            ItemKind::Macro(mac)
        } else {
            return Err(self.error("expected an item".into()));
        };
        Ok(Item {
            kind,
            test_gated,
            span: start.to(self.prev_span()),
        })
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(t) if t.kind == TokenKind::Ident => {
                self.pos += 1;
                Ok(t.text.clone())
            }
            _ => Err(self.error("expected an identifier".into())),
        }
    }

    fn parse_fn(&mut self) -> Result<ItemKind, ParseError> {
        self.eat_kw("fn");
        let name = self.expect_ident()?;
        if self.at_op("<") {
            self.skip_angles()?;
        }
        self.expect_op("(")?;
        let mut params = Vec::new();
        while !self.at_op(")") {
            if self.peek().is_none() {
                return Err(self.error("unclosed parameter list".into()));
            }
            // Parameter attributes.
            let _ = self.parse_attrs()?;
            // self receivers.
            if self.at_kw("self")
                || (self.at_op("&") && (self.at_kw_n(1, "self") || self.at_kw_n(1, "mut")))
                || (self.at_op("&")
                    && self
                        .peek_n(1)
                        .is_some_and(|t| t.kind == TokenKind::Lifetime))
            {
                // Consume through the receiver (and optional `self: Type`).
                while !self.at_op(",") && !self.at_op(")") {
                    if self.at_op("(") || self.at_op("[") || self.at_op("{") {
                        self.skip_balanced()?;
                    } else if self.at_op("<") {
                        self.skip_angles()?;
                    } else {
                        self.pos += 1;
                    }
                }
                params.push((None, None));
            } else {
                let pat = self.parse_pat_until(&[":", ",", ")"])?;
                let ty = if self.eat_op(":") {
                    Some(self.parse_type_until(&[",", ")"])?)
                } else {
                    None
                };
                params.push((pat.single.clone(), ty));
            }
            if !self.eat_op(",") {
                break;
            }
        }
        self.expect_op(")")?;
        let ret = if self.eat_op("->") {
            Some(self.parse_type_until(&["{", ";", "where"])?)
        } else {
            None
        };
        if self.at_kw("where") {
            self.consume_where_clause()?;
        }
        let body = if self.at_op("{") {
            Some(self.parse_block()?)
        } else {
            self.expect_op(";")?;
            None
        };
        Ok(ItemKind::Fn(FnItem {
            name,
            params,
            ret,
            body,
        }))
    }

    fn consume_where_clause(&mut self) -> Result<(), ParseError> {
        self.eat_kw("where");
        while !self.at_op("{") && !self.at_op(";") {
            if self.peek().is_none() {
                return Err(self.error("unterminated where clause".into()));
            }
            if self.at_op("<") {
                self.skip_angles()?;
            } else if self.at_op("(") || self.at_op("[") {
                self.skip_balanced()?;
            } else {
                self.pos += 1;
            }
        }
        Ok(())
    }

    /// No rule resolves names, so an import is consumed, not modelled.
    fn parse_use(&mut self) -> Result<ItemKind, ParseError> {
        self.eat_kw("use");
        while !self.eat_op(";") {
            if self.peek().is_none() {
                return Err(self.error("unterminated use declaration".into()));
            }
            if self.at_op("{") {
                self.skip_balanced()?;
            } else {
                self.pos += 1;
            }
        }
        Ok(ItemKind::Use)
    }

    fn parse_typedef(&mut self) -> Result<ItemKind, ParseError> {
        self.pos += 1; // struct / enum / union
        let name = self.expect_ident()?;
        if self.at_op("<") {
            self.skip_angles()?;
        }
        if self.at_kw("where") {
            self.consume_where_clause()?;
        }
        if self.at_op("{") {
            self.skip_balanced()?;
        } else if self.at_op("(") {
            self.skip_balanced()?;
            if self.at_kw("where") {
                self.consume_where_clause()?;
            }
            self.expect_op(";")?;
        } else {
            self.expect_op(";")?;
        }
        Ok(ItemKind::TypeDef { name })
    }

    fn parse_type_alias(&mut self) -> Result<ItemKind, ParseError> {
        self.eat_kw("type");
        let name = self.expect_ident()?;
        if self.at_op("<") {
            self.skip_angles()?;
        }
        if self.eat_op("=") {
            self.parse_type_until(&[";"])?;
        }
        self.expect_op(";")?;
        Ok(ItemKind::TypeAlias { name })
    }

    fn parse_const_static(&mut self) -> Result<ItemKind, ParseError> {
        self.pos += 1; // const / static
        self.eat_kw("mut");
        let name = if self.at_op("_") {
            self.pos += 1;
            "_".to_string()
        } else {
            self.expect_ident()?
        };
        let ty = if self.eat_op(":") {
            Some(self.parse_type_until(&["=", ";"])?)
        } else {
            None
        };
        let init = if self.eat_op("=") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        self.expect_op(";")?;
        Ok(ItemKind::ConstStatic { name, ty, init })
    }

    fn parse_impl(&mut self) -> Result<ItemKind, ParseError> {
        self.eat_kw("impl");
        if self.at_op("<") {
            self.skip_angles()?;
        }
        self.eat_op("!");
        // First type (trait or self type), then the self type after `for`.
        self.parse_type_until(&["for", "where", "{"])?;
        if self.eat_kw("for") {
            self.parse_type_until(&["where", "{"])?;
        }
        if self.at_kw("where") {
            self.consume_where_clause()?;
        }
        self.expect_op("{")?;
        let items = self.parse_items(true)?;
        self.expect_op("}")?;
        Ok(ItemKind::Impl { items })
    }

    fn parse_trait(&mut self) -> Result<ItemKind, ParseError> {
        self.eat_kw("trait");
        let name = self.expect_ident()?;
        if self.at_op("<") {
            self.skip_angles()?;
        }
        // Supertraits / where clause.
        while !self.at_op("{") {
            if self.peek().is_none() {
                return Err(self.error("unterminated trait header".into()));
            }
            if self.at_op("<") {
                self.skip_angles()?;
            } else if self.at_op("(") || self.at_op("[") {
                self.skip_balanced()?;
            } else {
                self.pos += 1;
            }
        }
        self.expect_op("{")?;
        let items = self.parse_items(true)?;
        self.expect_op("}")?;
        Ok(ItemKind::Trait { name, items })
    }

    fn parse_mod(&mut self) -> Result<ItemKind, ParseError> {
        self.eat_kw("mod");
        let name = self.expect_ident()?;
        if self.eat_op(";") {
            return Ok(ItemKind::Mod { name, items: None });
        }
        self.expect_op("{")?;
        let items = self.parse_items(true)?;
        self.expect_op("}")?;
        Ok(ItemKind::Mod {
            name,
            items: Some(items),
        })
    }

    fn parse_macro_rules(&mut self) -> Result<ItemKind, ParseError> {
        let start = self.cur_span();
        self.eat_kw("macro_rules");
        self.expect_op("!")?;
        let name = self.expect_ident()?;
        if !self.at_op("{") && !self.at_op("(") && !self.at_op("[") {
            return Err(self.error("expected a macro_rules body".into()));
        }
        self.skip_balanced()?;
        Ok(ItemKind::Macro(MacroCall {
            path: Path {
                segments: vec!["macro_rules".into(), name],
                span: start,
            },
            args: Vec::new(),
            span: start.to(self.prev_span()),
        }))
    }

    // ----- types -----------------------------------------------------------

    /// Consumes type tokens until one of `stops` appears at delimiter depth
    /// zero, collecting normalized text.
    fn parse_type_until(&mut self, stops: &[&str]) -> Result<TypeRef, ParseError> {
        let start = self.cur_span();
        let mut text = String::new();
        let mut angle = 0i64;
        while let Some(t) = self.peek() {
            let is_stop = angle == 0
                && stops.iter().any(|s| {
                    t.text == *s
                        && (t.kind == TokenKind::Op
                            || (t.kind == TokenKind::Ident && (*s == "where" || *s == "for")))
                });
            if is_stop {
                break;
            }
            match (t.kind, t.text.as_str()) {
                (TokenKind::Op, "<") => angle += 1,
                (TokenKind::Op, "<<") => angle += 2,
                (TokenKind::Op, ">") => angle -= 1,
                (TokenKind::Op, ">>") => angle -= 2,
                (TokenKind::Op, "(" | "[") => {
                    let from = self.pos;
                    self.skip_balanced()?;
                    for tt in &self.toks[from..self.pos] {
                        push_type_text(&mut text, tt);
                    }
                    continue;
                }
                (TokenKind::Op, "{") => {
                    // Const-generic block or the body we must not eat.
                    if angle > 0 {
                        let from = self.pos;
                        self.skip_balanced()?;
                        for tt in &self.toks[from..self.pos] {
                            push_type_text(&mut text, tt);
                        }
                        continue;
                    }
                    break;
                }
                (TokenKind::Op, ";" | "}" | ",") if angle == 0 => break,
                _ => {}
            }
            push_type_text(&mut text, t);
            self.pos += 1;
        }
        if text.is_empty() {
            return Err(self.error("expected a type".into()));
        }
        Ok(TypeRef {
            text,
            span: start.to(self.prev_span()),
        })
    }

    // ----- patterns --------------------------------------------------------

    /// Consumes pattern tokens until a stop token at depth zero; extracts
    /// binding names heuristically (lowercase identifiers in binding
    /// position — Rust's naming convention makes this reliable in
    /// practice).
    fn parse_pat_until(&mut self, stops: &[&str]) -> Result<PatSummary, ParseError> {
        let start_pos = self.pos;
        let start = self.cur_span();
        while let Some(t) = self.peek() {
            if t.kind == TokenKind::Op && stops.contains(&t.text.as_str()) {
                break;
            }
            if t.kind == TokenKind::Ident && stops.contains(&t.text.as_str()) {
                break;
            }
            match (t.kind, t.text.as_str()) {
                (TokenKind::Op, "(" | "[" | "{") => {
                    self.skip_balanced()?;
                    continue;
                }
                (TokenKind::Op, ")" | "]" | "}") => break,
                (TokenKind::Op, "<") => {
                    self.skip_angles()?;
                    continue;
                }
                _ => {}
            }
            self.pos += 1;
        }
        let toks = &self.toks[start_pos..self.pos];
        let mut bindings = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident {
                continue;
            }
            let name = t.text.as_str();
            if matches!(name, "mut" | "ref" | "box" | "_") {
                continue;
            }
            // Convention: binding names are lower_snake_case; paths/variants
            // and struct names are capitalized.
            if !name.starts_with(|c: char| c.is_lowercase() || c == '_') {
                continue;
            }
            let prev = i.checked_sub(1).map(|p| toks[p].text.as_str());
            let next = toks.get(i + 1).map(|n| n.text.as_str());
            if prev == Some("::") || next == Some("::") {
                continue;
            }
            // `field: pat` — the field name is not a binding.
            if next == Some(":") {
                continue;
            }
            bindings.push(t.text.clone());
        }
        let plain: Vec<&Token> = toks
            .iter()
            .filter(|t| !(t.kind == TokenKind::Ident && matches!(t.text.as_str(), "mut" | "ref")))
            .collect();
        let single = if plain.len() == 1 && plain[0].kind == TokenKind::Ident {
            Some(plain[0].text.clone())
        } else {
            None
        };
        Ok(PatSummary {
            bindings,
            single,
            span: start.to(self.prev_span()),
        })
    }

    // ----- blocks & statements --------------------------------------------

    fn parse_block(&mut self) -> Result<Block, ParseError> {
        let start = self.expect_op("{")?;
        let mut stmts = Vec::new();
        loop {
            if self.at_op("}") {
                break;
            }
            if self.peek().is_none() {
                return Err(self.error("unclosed block".into()));
            }
            if self.eat_op(";") {
                continue;
            }
            stmts.push(self.parse_stmt()?);
        }
        let end = self.expect_op("}")?;
        Ok(Block {
            stmts,
            span: start.to(end),
        })
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        // Attributes may precede statements and nested items alike; look
        // past them to decide what this is.
        let save = self.pos;
        let (_attrs, _gated) = self.parse_attrs()?;
        if self.at_kw("let") {
            return self.parse_let_stmt();
        }
        if self.is_item_start() {
            self.pos = save;
            let item = self.parse_item()?;
            return Ok(Stmt::Item(Box::new(item)));
        }
        // Expression statement. Block-like expressions terminate without a
        // `;` (Rust statement grammar) and take no postfix or infix
        // continuation: `for … {}` followed by `[a, b]` starts a new
        // array-literal statement, not an index into the loop. Others
        // continue as full expressions.
        if self.at_block_like_expr() {
            let expr = self.parse_prefix(true)?;
            let semi = self.eat_op(";");
            return Ok(Stmt::Expr { expr, semi });
        }
        let expr = self.parse_expr()?;
        let semi = self.eat_op(";");
        Ok(Stmt::Expr { expr, semi })
    }

    /// Whether the cursor sits at a block-like expression: `if`, `match`,
    /// `while`, `loop`, `for`, a bare block, `unsafe { … }`, `const { … }`,
    /// optionally behind a loop label. Item-position keywords (`unsafe fn`,
    /// `const NAME`) are already diverted by `is_item_start` before this is
    /// consulted in `parse_stmt`.
    fn at_block_like_expr(&self) -> bool {
        let mut n = 0;
        if self.peek().is_some_and(|t| t.kind == TokenKind::Lifetime) && self.at_op_n(1, ":") {
            n = 2;
        }
        let Some(t) = self.peek_n(n) else {
            return false;
        };
        match (t.kind, t.text.as_str()) {
            (TokenKind::Op, "{") => true,
            (TokenKind::Ident, "if" | "match" | "while" | "loop" | "for") => true,
            (TokenKind::Ident, "unsafe" | "const") => self.at_op_n(n + 1, "{"),
            _ => false,
        }
    }

    /// Whether the cursor sits at an item declaration (inside a block).
    fn is_item_start(&self) -> bool {
        let Some(t) = self.peek() else {
            return false;
        };
        if t.kind != TokenKind::Ident {
            return false;
        }
        match t.text.as_str() {
            "fn" | "struct" | "enum" | "trait" | "impl" | "mod" | "use" | "static"
            | "macro_rules" => true,
            "union" => self.peek_n(1).is_some_and(|n| n.kind == TokenKind::Ident),
            "type" => self.peek_n(1).is_some_and(|n| n.kind == TokenKind::Ident),
            // `const NAME`/`const fn` are items; `const { … }` is a block
            // expression.
            "const" => !self.at_op_n(1, "{"),
            "unsafe" => {
                self.at_kw_n(1, "fn") || self.at_kw_n(1, "impl") || self.at_kw_n(1, "trait")
            }
            "async" => self.at_kw_n(1, "fn"),
            "extern" => {
                self.at_kw_n(1, "crate") || self.peek_n(1).is_some_and(|n| n.kind == TokenKind::Str)
            }
            "pub" => true,
            _ => false,
        }
    }

    fn parse_let_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.cur_span();
        self.eat_kw("let");
        let pat = self.parse_pat_until(&[":", "=", ";", "else"])?;
        let ty = if self.eat_op(":") {
            Some(self.parse_type_until(&["=", ";", "else"])?)
        } else {
            None
        };
        let init = if self.eat_op("=") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let els = if self.eat_kw("else") {
            Some(self.parse_block()?)
        } else {
            None
        };
        self.expect_op(";")?;
        Ok(Stmt::Let {
            pat,
            ty,
            init,
            els,
            span: start.to(self.prev_span()),
        })
    }

    // ----- expressions -----------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_expr_bp(0, true)
    }

    fn parse_expr_no_struct(&mut self) -> Result<Expr, ParseError> {
        self.parse_expr_bp(0, false)
    }

    /// Pratt parser. `min_bp` is the minimum binding power; `structs`
    /// controls whether `Path { … }` literals are allowed (disabled in
    /// conditions and match scrutinees).
    fn parse_expr_bp(&mut self, min_bp: u8, structs: bool) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_prefix(structs)?;
        while let Some(t) = self.peek() {
            if t.kind != TokenKind::Op && !(t.kind == TokenKind::Ident && t.text == "as") {
                break;
            }
            let op = t.text.as_str();
            // Postfix operators bind tightest.
            match op {
                "." => {
                    lhs = self.parse_postfix_dot(lhs)?;
                    continue;
                }
                "?" => {
                    self.pos += 1;
                    let span = lhs.span.to(self.prev_span());
                    lhs = Expr {
                        kind: ExprKind::Try(Box::new(lhs)),
                        span,
                    };
                    continue;
                }
                "(" => {
                    let args = self.parse_call_args()?;
                    let span = lhs.span.to(self.prev_span());
                    lhs = Expr {
                        kind: ExprKind::Call {
                            callee: Box::new(lhs),
                            args,
                        },
                        span,
                    };
                    continue;
                }
                "[" => {
                    self.pos += 1;
                    let index = self.parse_expr()?;
                    self.expect_op("]")?;
                    let span = lhs.span.to(self.prev_span());
                    let is_range = matches!(index.kind, ExprKind::Range { .. });
                    lhs = Expr {
                        kind: ExprKind::Index {
                            recv: Box::new(lhs),
                            index: Box::new(index),
                            is_range,
                        },
                        span,
                    };
                    continue;
                }
                "as" => {
                    self.pos += 1;
                    // `<` is deliberately not a stop: `x as Arc<dyn Sink>`
                    // opens generics. A bare comparison after a cast
                    // (`a as usize < b`) must be parenthesized — rustfmt's
                    // style in this workspace already guarantees that.
                    let ty = self.parse_type_until(&[
                        ")", "]", "}", ",", ";", "?", ".", "==", "!=", "<=", ">=", "&&", "||", "+",
                        "-", "*", "/", "%", "=", ">", "..", "..=", "as",
                    ])?;
                    let span = lhs.span.to(self.prev_span());
                    lhs = Expr {
                        kind: ExprKind::Cast {
                            expr: Box::new(lhs),
                            ty,
                        },
                        span,
                    };
                    continue;
                }
                _ => {}
            }
            let Some((l_bp, r_bp, assoc_right)) = infix_binding_power(op) else {
                break;
            };
            if l_bp < min_bp {
                break;
            }
            let op_span = self.cur_span();
            let op_text = op.to_string();
            self.pos += 1;
            // Open ranges: `a..` with no RHS.
            if (op_text == ".." || op_text == "..=") && !self.starts_expr() {
                let span = lhs.span.to(op_span);
                lhs = Expr {
                    kind: ExprKind::Range {
                        lo: Some(Box::new(lhs)),
                        hi: None,
                    },
                    span,
                };
                continue;
            }
            let rhs = self.parse_expr_bp(if assoc_right { r_bp - 1 } else { r_bp }, structs)?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr {
                kind: match op_text.as_str() {
                    "=" => ExprKind::Assign {
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                    },
                    "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>=" => {
                        ExprKind::AssignOp {
                            op_text,
                            op_span,
                            lhs: Box::new(lhs),
                            rhs: Box::new(rhs),
                        }
                    }
                    ".." | "..=" => ExprKind::Range {
                        lo: Some(Box::new(lhs)),
                        hi: Some(Box::new(rhs)),
                    },
                    _ => ExprKind::Binary {
                        op: match op_text.as_str() {
                            "==" => BinOp::Eq,
                            "!=" => BinOp::Ne,
                            "+" => BinOp::Add,
                            _ => BinOp::Other,
                        },
                        op_text,
                        op_span,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                    },
                },
                span,
            };
        }
        Ok(lhs)
    }

    /// Whether the current token can start an expression (used to detect
    /// open-ended ranges).
    fn starts_expr(&self) -> bool {
        match self.peek() {
            None => false,
            Some(t) => match t.kind {
                TokenKind::Ident => !matches!(t.text.as_str(), "else"),
                TokenKind::Int | TokenKind::Float | TokenKind::Str | TokenKind::Char => true,
                TokenKind::Lifetime => true,
                TokenKind::Op => matches!(
                    t.text.as_str(),
                    "(" | "[" | "{" | "&" | "&&" | "*" | "-" | "!" | "|" | "||" | ".." | "..="
                ),
            },
        }
    }

    fn parse_postfix_dot(&mut self, recv: Expr) -> Result<Expr, ParseError> {
        self.expect_op(".")?;
        // `.await`
        if self.eat_kw("await") {
            let span = recv.span.to(self.prev_span());
            return Ok(Expr {
                kind: ExprKind::Await(Box::new(recv)),
                span,
            });
        }
        // Tuple field `.0`.
        if self.peek().is_some_and(|t| t.kind == TokenKind::Int) {
            self.pos += 1;
            let span = recv.span.to(self.prev_span());
            return Ok(Expr {
                kind: ExprKind::Field(Box::new(recv)),
                span,
            });
        }
        let name_span = self.cur_span();
        let name = self.expect_ident()?;
        // Turbofish?
        let mut turbofish = Vec::new();
        if self.at_op("::") && self.at_op_n(1, "<") {
            self.pos += 2;
            // Collect top-level type arguments as text.
            let mut depth = 1i64;
            let mut cur = String::new();
            while depth > 0 {
                let Some(t) = self.peek() else {
                    return Err(self.error("unclosed turbofish".into()));
                };
                match (t.kind, t.text.as_str()) {
                    (TokenKind::Op, "<") => depth += 1,
                    (TokenKind::Op, "<<") => depth += 2,
                    (TokenKind::Op, ">") => depth -= 1,
                    (TokenKind::Op, ">>") => depth -= 2,
                    (TokenKind::Op, ",") if depth == 1 => {
                        turbofish.push(std::mem::take(&mut cur));
                        self.pos += 1;
                        continue;
                    }
                    _ => {}
                }
                if depth > 0 {
                    push_type_text(&mut cur, t);
                }
                self.pos += 1;
            }
            if !cur.is_empty() {
                turbofish.push(cur);
            }
        }
        if self.at_op("(") {
            let args = self.parse_call_args()?;
            let span = recv.span.to(self.prev_span());
            Ok(Expr {
                kind: ExprKind::MethodCall {
                    recv: Box::new(recv),
                    name,
                    name_span,
                    turbofish,
                    args,
                },
                span,
            })
        } else {
            let span = recv.span.to(name_span);
            Ok(Expr {
                kind: ExprKind::Field(Box::new(recv)),
                span,
            })
        }
    }

    fn parse_call_args(&mut self) -> Result<Vec<Expr>, ParseError> {
        self.expect_op("(")?;
        let mut args = Vec::new();
        while !self.at_op(")") {
            if self.peek().is_none() {
                return Err(self.error("unclosed call".into()));
            }
            args.push(self.parse_expr()?);
            if !self.eat_op(",") {
                break;
            }
        }
        self.expect_op(")")?;
        Ok(args)
    }

    fn parse_prefix(&mut self, structs: bool) -> Result<Expr, ParseError> {
        let Some(t) = self.peek() else {
            return Err(self.error("expected an expression".into()));
        };
        let start = self.cur_span();
        // Loop labels: `'a: loop { … }`.
        if t.kind == TokenKind::Lifetime && self.at_op_n(1, ":") {
            self.pos += 2;
            return self.parse_prefix(structs);
        }
        match (t.kind, t.text.as_str()) {
            (TokenKind::Int, _) => {
                self.pos += 1;
                Ok(Expr {
                    kind: ExprKind::Lit(Lit::Int(t.text.clone())),
                    span: start,
                })
            }
            (TokenKind::Float, _) => {
                self.pos += 1;
                Ok(Expr {
                    kind: ExprKind::Lit(Lit::Float(t.text.clone())),
                    span: start,
                })
            }
            (TokenKind::Str | TokenKind::Char, _) => {
                self.pos += 1;
                Ok(Expr {
                    kind: ExprKind::Lit(Lit::Other),
                    span: start,
                })
            }
            (TokenKind::Ident, "true" | "false") => {
                self.pos += 1;
                Ok(Expr {
                    kind: ExprKind::Lit(Lit::Bool(t.text == "true")),
                    span: start,
                })
            }
            (TokenKind::Op, "-" | "!") => {
                self.pos += 1;
                let inner = self.parse_expr_bp(PREFIX_BP, structs)?;
                let span = start.to(inner.span);
                Ok(Expr {
                    kind: ExprKind::Unary(Box::new(inner)),
                    span,
                })
            }
            (TokenKind::Op, "*") => {
                self.pos += 1;
                let inner = self.parse_expr_bp(PREFIX_BP, structs)?;
                let span = start.to(inner.span);
                Ok(Expr {
                    kind: ExprKind::Unary(Box::new(inner)),
                    span,
                })
            }
            (TokenKind::Op, "&" | "&&") => {
                let double = t.text == "&&";
                self.pos += 1;
                self.eat_kw("mut");
                let inner = self.parse_expr_bp(PREFIX_BP, structs)?;
                let span = start.to(inner.span);
                let once = Expr {
                    kind: ExprKind::Ref(Box::new(inner)),
                    span,
                };
                Ok(if double {
                    Expr {
                        kind: ExprKind::Ref(Box::new(once)),
                        span,
                    }
                } else {
                    once
                })
            }
            (TokenKind::Op, ".." | "..=") => {
                self.pos += 1;
                let hi = if self.starts_expr() {
                    Some(Box::new(self.parse_expr_bp(RANGE_RHS_BP, structs)?))
                } else {
                    None
                };
                let span = start.to(self.prev_span());
                Ok(Expr {
                    kind: ExprKind::Range { lo: None, hi },
                    span,
                })
            }
            (TokenKind::Op, "(") => {
                self.pos += 1;
                let mut elems = Vec::new();
                let mut trailing_comma = false;
                while !self.at_op(")") {
                    if self.peek().is_none() {
                        return Err(self.error("unclosed parenthesis".into()));
                    }
                    elems.push(self.parse_expr()?);
                    trailing_comma = self.eat_op(",");
                    if !trailing_comma {
                        break;
                    }
                }
                self.expect_op(")")?;
                let span = start.to(self.prev_span());
                if elems.len() == 1 && !trailing_comma {
                    // Parenthesized expression: keep the inner node but
                    // widen its span to include the parens.
                    let mut inner = elems.pop().unwrap_or(Expr {
                        kind: ExprKind::Opaque,
                        span,
                    });
                    inner.span = span;
                    Ok(inner)
                } else {
                    Ok(Expr {
                        kind: ExprKind::Tuple(elems),
                        span,
                    })
                }
            }
            (TokenKind::Op, "[") => {
                self.pos += 1;
                let mut elems = Vec::new();
                let mut repeat_len = None;
                while !self.at_op("]") {
                    if self.peek().is_none() {
                        return Err(self.error("unclosed array literal".into()));
                    }
                    let e = self.parse_expr()?;
                    if elems.is_empty() && self.eat_op(";") {
                        repeat_len = Some(self.parse_expr()?);
                        elems.push(e);
                        break;
                    }
                    elems.push(e);
                    if !self.eat_op(",") {
                        break;
                    }
                }
                self.expect_op("]")?;
                let span = start.to(self.prev_span());
                match repeat_len {
                    Some(len) => {
                        let elem = elems.pop().unwrap_or(Expr {
                            kind: ExprKind::Opaque,
                            span,
                        });
                        Ok(Expr {
                            kind: ExprKind::Repeat {
                                elem: Box::new(elem),
                                len: Box::new(len),
                            },
                            span,
                        })
                    }
                    None => Ok(Expr {
                        kind: ExprKind::Array(elems),
                        span,
                    }),
                }
            }
            (TokenKind::Op, "{") => {
                let block = self.parse_block()?;
                let span = block.span;
                Ok(Expr {
                    kind: ExprKind::Block(block),
                    span,
                })
            }
            (TokenKind::Op, "|" | "||") => self.parse_closure(start),
            (TokenKind::Ident, "move") => {
                self.pos += 1;
                self.parse_closure(start)
            }
            (TokenKind::Ident, "if") => self.parse_if(start),
            (TokenKind::Ident, "while") => {
                self.pos += 1;
                let cond = self.parse_condition()?;
                let body = self.parse_block()?;
                let span = start.to(self.prev_span());
                Ok(Expr {
                    kind: ExprKind::While {
                        cond: Box::new(cond),
                        body,
                    },
                    span,
                })
            }
            (TokenKind::Ident, "loop") => {
                self.pos += 1;
                let body = self.parse_block()?;
                let span = start.to(self.prev_span());
                Ok(Expr {
                    kind: ExprKind::Loop(body),
                    span,
                })
            }
            (TokenKind::Ident, "for") => {
                self.pos += 1;
                let pat = self.parse_pat_until(&["in"])?;
                if !self.eat_kw("in") {
                    return Err(self.error("expected `in` in for loop".into()));
                }
                let iter = self.parse_expr_no_struct()?;
                let body = self.parse_block()?;
                let span = start.to(self.prev_span());
                Ok(Expr {
                    kind: ExprKind::For {
                        pat,
                        iter: Box::new(iter),
                        body,
                    },
                    span,
                })
            }
            (TokenKind::Ident, "match") => {
                self.pos += 1;
                let scrutinee = self.parse_expr_no_struct()?;
                self.expect_op("{")?;
                let mut arms = Vec::new();
                while !self.at_op("}") {
                    if self.peek().is_none() {
                        return Err(self.error("unclosed match".into()));
                    }
                    let _ = self.parse_attrs()?;
                    self.eat_op("|");
                    let pat = self.parse_pat_until(&["=>", "if"])?;
                    let guard = if self.eat_kw("if") {
                        Some(self.parse_expr_no_struct()?)
                    } else {
                        None
                    };
                    self.expect_op("=>")?;
                    let body = self.parse_expr()?;
                    self.eat_op(",");
                    arms.push((pat, guard, body));
                }
                self.expect_op("}")?;
                let span = start.to(self.prev_span());
                Ok(Expr {
                    kind: ExprKind::Match {
                        scrutinee: Box::new(scrutinee),
                        arms,
                    },
                    span,
                })
            }
            (TokenKind::Ident, "unsafe") => {
                self.pos += 1;
                let block = self.parse_block()?;
                let span = start.to(self.prev_span());
                Ok(Expr {
                    kind: ExprKind::Block(block),
                    span,
                })
            }
            (TokenKind::Ident, "return" | "break") => {
                self.pos += 1;
                // `break 'label` labels.
                if self.peek().is_some_and(|t| t.kind == TokenKind::Lifetime) {
                    self.pos += 1;
                }
                let value = if self.starts_expr() && !self.at_op("}") {
                    Some(Box::new(self.parse_expr_bp(0, structs)?))
                } else {
                    None
                };
                let span = start.to(self.prev_span());
                Ok(Expr {
                    kind: ExprKind::Jump(value),
                    span,
                })
            }
            (TokenKind::Ident, "continue") => {
                self.pos += 1;
                if self.peek().is_some_and(|t| t.kind == TokenKind::Lifetime) {
                    self.pos += 1;
                }
                Ok(Expr {
                    kind: ExprKind::Jump(None),
                    span: start.to(self.prev_span()),
                })
            }
            (TokenKind::Ident, "const") if self.at_op_n(1, "{") => {
                self.pos += 1;
                let block = self.parse_block()?;
                let span = start.to(self.prev_span());
                Ok(Expr {
                    kind: ExprKind::Block(block),
                    span,
                })
            }
            (TokenKind::Ident, "let") => {
                // let-expression inside a condition (`if let`, let chains).
                self.pos += 1;
                let pat = self.parse_pat_until(&["="])?;
                self.expect_op("=")?;
                // The scrutinee cannot contain a top-level `&&`/`||`.
                let scrutinee = self.parse_expr_bp(LET_SCRUTINEE_BP, false)?;
                let span = start.to(self.prev_span());
                Ok(Expr {
                    kind: ExprKind::If {
                        cond: Box::new(scrutinee),
                        pat: Some(pat),
                        then: Block {
                            stmts: Vec::new(),
                            span,
                        },
                        else_: None,
                    },
                    span,
                })
            }
            (TokenKind::Ident, _) => self.parse_path_expr(structs),
            (TokenKind::Lifetime, _) => {
                self.pos += 1;
                Ok(Expr {
                    kind: ExprKind::Opaque,
                    span: start,
                })
            }
            (TokenKind::Op, _) => Err(self.error("expected an expression".into())),
        }
    }

    fn parse_closure(&mut self, start: Span) -> Result<Expr, ParseError> {
        let mut params = PatSummary::default();
        if self.eat_op("||") {
            // No parameters.
        } else {
            self.expect_op("|")?;
            let mut bindings = Vec::new();
            while !self.at_op("|") {
                if self.peek().is_none() {
                    return Err(self.error("unclosed closure parameter list".into()));
                }
                let pat = self.parse_pat_until(&[":", ",", "|"])?;
                bindings.extend(pat.bindings);
                if self.eat_op(":") {
                    let _ = self.parse_type_until(&[",", "|"])?;
                }
                if !self.eat_op(",") {
                    break;
                }
            }
            self.expect_op("|")?;
            params.bindings = bindings;
        }
        let body = if self.eat_op("->") {
            let _ = self.parse_type_until(&["{"])?;
            let block = self.parse_block()?;
            let span = block.span;
            Expr {
                kind: ExprKind::Block(block),
                span,
            }
        } else {
            self.parse_expr_bp(CLOSURE_BODY_BP, true)?
        };
        let span = start.to(body.span);
        Ok(Expr {
            kind: ExprKind::Closure {
                params,
                body: Box::new(body),
            },
            span,
        })
    }

    fn parse_if(&mut self, start: Span) -> Result<Expr, ParseError> {
        self.eat_kw("if");
        let cond = self.parse_condition()?;
        let then = self.parse_block()?;
        let else_ = if self.eat_kw("else") {
            if self.at_kw("if") {
                let s = self.cur_span();
                Some(Box::new(self.parse_if(s)?))
            } else {
                let block = self.parse_block()?;
                let span = block.span;
                Some(Box::new(Expr {
                    kind: ExprKind::Block(block),
                    span,
                }))
            }
        } else {
            None
        };
        // Hoist an `if let` pattern out of the condition when the condition
        // is a bare let-expression.
        let (cond, pat) = match cond {
            Expr {
                kind:
                    ExprKind::If {
                        cond: inner,
                        pat: Some(p),
                        then: empty,
                        else_: None,
                    },
                ..
            } if empty.stmts.is_empty() => (*inner, Some(p)),
            other => (other, None),
        };
        let span = start.to(self.prev_span());
        Ok(Expr {
            kind: ExprKind::If {
                cond: Box::new(cond),
                pat,
                then,
                else_,
            },
            span,
        })
    }

    fn parse_condition(&mut self) -> Result<Expr, ParseError> {
        self.parse_expr_no_struct()
    }

    fn parse_path_expr(&mut self, structs: bool) -> Result<Expr, ParseError> {
        let start = self.cur_span();
        let mut segments = vec![self.expect_ident()?];
        loop {
            if self.at_op("::") {
                // Turbofish in path position: `Vec::<f64>::new`.
                if self.at_op_n(1, "<") {
                    self.pos += 1;
                    self.skip_angles()?;
                    if !self.at_op("::") {
                        break;
                    }
                    continue;
                }
                if self.peek_n(1).is_some_and(|t| t.kind == TokenKind::Ident) {
                    self.pos += 1;
                    segments.push(self.expect_ident()?);
                    continue;
                }
                if self.at_op_n(1, "{") {
                    // `path::{…}` only occurs in use trees; treat as error.
                    return Err(self.error("unexpected `::{` in expression".into()));
                }
                break;
            }
            break;
        }
        let path = Path {
            segments,
            span: start.to(self.prev_span()),
        };
        // Macro invocation?
        if self.at_op("!") && (self.at_op_n(1, "(") || self.at_op_n(1, "[") || self.at_op_n(1, "{"))
        {
            let mac = self.parse_macro_body(path)?;
            let span = mac.span;
            return Ok(Expr {
                kind: ExprKind::Macro(mac),
                span,
            });
        }
        // Struct literal?
        if structs && self.at_op("{") && !path.segments.is_empty() {
            // Only treat as a struct literal when the path looks like a
            // type (last segment capitalized) — `loop { }` style keywords
            // never reach here, but `x { }` would otherwise misparse.
            let last = path.last();
            if last.starts_with(char::is_uppercase) {
                return self.parse_struct_literal(path);
            }
        }
        let span = path.span;
        Ok(Expr {
            kind: ExprKind::Path(path),
            span,
        })
    }

    fn parse_struct_literal(&mut self, path: Path) -> Result<Expr, ParseError> {
        let start = path.span;
        self.expect_op("{")?;
        let mut fields = Vec::new();
        let mut rest = None;
        while !self.at_op("}") {
            if self.peek().is_none() {
                return Err(self.error("unclosed struct literal".into()));
            }
            if self.eat_op("..") {
                rest = Some(Box::new(self.parse_expr()?));
                break;
            }
            // Field attributes (`#[cfg]`, lint levels) do not change what
            // the rules see.
            self.parse_attrs()?;
            // Numeric field (tuple-struct update syntax) or named field.
            let name = match self.peek() {
                Some(t) if t.kind == TokenKind::Ident => {
                    self.pos += 1;
                    t.text.clone()
                }
                Some(t) if t.kind == TokenKind::Int => {
                    self.pos += 1;
                    t.text.clone()
                }
                _ => return Err(self.error("expected a field name".into())),
            };
            let value = if self.eat_op(":") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            fields.push((name, value));
            if !self.eat_op(",") {
                break;
            }
        }
        self.expect_op("}")?;
        let span = start.to(self.prev_span());
        Ok(Expr {
            kind: ExprKind::Struct { path, fields, rest },
            span,
        })
    }

    fn parse_macro_call(&mut self) -> Result<MacroCall, ParseError> {
        let start = self.cur_span();
        let mut segments = vec![self.expect_ident()?];
        while self.at_op("::") && self.peek_n(1).is_some_and(|t| t.kind == TokenKind::Ident) {
            self.pos += 1;
            segments.push(self.expect_ident()?);
        }
        let path = Path {
            segments,
            span: start.to(self.prev_span()),
        };
        self.parse_macro_body(path)
    }

    /// Parses `!` + delimited body of a macro whose path is already
    /// consumed. Arguments are re-parsed as comma-separated expressions
    /// with per-argument recovery: an argument that is not an expression
    /// (a pattern arm, a token-tree fragment) is skipped to the next
    /// top-level comma.
    fn parse_macro_body(&mut self, path: Path) -> Result<MacroCall, ParseError> {
        self.expect_op("!")?;
        let (open, close) = match self.peek() {
            Some(t) if t.kind == TokenKind::Op && t.text == "(" => ("(", ")"),
            Some(t) if t.kind == TokenKind::Op && t.text == "[" => ("[", "]"),
            Some(t) if t.kind == TokenKind::Op && t.text == "{" => ("{", "}"),
            _ => return Err(self.error("expected a macro body".into())),
        };
        // Record the body's token range by consuming it balanced, then
        // re-parse inside.
        let body_open = self.pos;
        self.skip_balanced()?;
        let body_end = self.pos; // one past close delimiter
        let end_span = self.prev_span();
        let inner_start = body_open + 1;
        let inner_end = body_end - 1;
        let mut args = Vec::new();
        let mut sub = Parser {
            toks: &self.toks[..inner_end],
            pos: inner_start,
        };
        let _ = open;
        let _ = close;
        while sub.pos < inner_end {
            let arg_start = sub.pos;
            match sub.parse_expr() {
                Ok(expr) if sub.pos >= inner_end || sub.at_op(",") => {
                    args.push(expr);
                    sub.eat_op(",");
                }
                _ => {
                    // Recovery: skip this argument to the next top-level
                    // comma.
                    sub.pos = arg_start;
                    let mut ok = true;
                    while sub.pos < inner_end {
                        if sub.at_op(",") {
                            sub.pos += 1;
                            break;
                        }
                        if sub.at_op("(") || sub.at_op("[") || sub.at_op("{") {
                            if sub.skip_balanced().is_err() {
                                ok = false;
                                break;
                            }
                        } else {
                            sub.pos += 1;
                        }
                    }
                    if !ok {
                        break;
                    }
                }
            }
        }
        let span = path.span.to(end_span);
        Ok(MacroCall { path, args, span })
    }
}

/// The span of one token.
fn tok_span(t: &Token) -> Span {
    Span {
        start: t.start,
        end: t.end,
        line: t.line,
    }
}

/// Binding powers for infix operators: `(left, right, right-assoc)`.
fn infix_binding_power(op: &str) -> Option<(u8, u8, bool)> {
    Some(match op {
        "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "&=" | "|=" | "<<=" | ">>=" => (2, 3, true),
        ".." | "..=" => (4, 5, false),
        "||" => (6, 7, false),
        "&&" => (8, 9, false),
        "==" | "!=" | "<" | ">" | "<=" | ">=" => (10, 11, false),
        "|" => (12, 13, false),
        "^" => (14, 15, false),
        "&" => (16, 17, false),
        "<<" | ">>" => (18, 19, false),
        "+" | "-" => (20, 21, false),
        "*" | "/" | "%" => (22, 23, false),
        _ => return None,
    })
}

/// Binding power for unary prefix operators (binds tighter than any infix).
const PREFIX_BP: u8 = 24;
/// Closure bodies swallow everything up to (not including) assignment.
const CLOSURE_BODY_BP: u8 = 2;
/// A `let` scrutinee must not swallow a chaining `&&`.
const LET_SCRUTINEE_BP: u8 = 9;
/// RHS of a leading range `..x`.
const RANGE_RHS_BP: u8 = 6;

/// Appends one token to a normalized type text.
fn push_type_text(out: &mut String, t: &Token) {
    let text: &str = match t.kind {
        TokenKind::Str => "\"…\"",
        _ => &t.text,
    };
    let need_space = !out.is_empty()
        && out
            .chars()
            .last()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
        && text
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
    if need_space {
        out.push(' ');
    }
    out.push_str(text);
}
