//! The rules this crate enforces, as scans over [`tokenizer::lex`]'s
//! tokens: the project invariants clippy cannot express.
//!
//! AsyncFilter's verdicts hinge on floating-point suspicious scores (paper
//! eqs. 6–7) and a 1-D 3-means over them (§4.3), so rounding-fragile float
//! equality and ad-hoc reduction order change accept/defer/reject
//! decisions. The determinism, NaN-ordering, indexing and panic-freedom
//! rules clippy can hold live in `clippy.toml` and the crate roots;
//! `docs/LINTS.md` catalogues both halves.
//!
//! The scan keeps a stack of delimiter frames. A frame knows whether it is
//! a loop body, a closure body, test-gated code or a `debug_assert!`
//! argument list, and which bindings it declares and whether each is a
//! float scalar: the context F3's `acc +=` shape needs. An
//! expression-bodied closure is a frame without delimiters of its own; it
//! ends at a `,` or `;` at its level or at its parent's closer.
//!
//! [`tokenizer::lex`]: crate::tokenizer::lex

use crate::engine::FileClass;
use crate::tokenizer::{float_literal_is_zero, Token, TokenKind};

/// The ids this crate enforces, in catalogue order; each is also a valid
/// `lint:allow` target.
///
/// - `F2`: no float `==`/`!=` against nonzero literals or NaN/∞ in non-test
///   code;
/// - `F3`: no ad-hoc float reductions outside `asyncfl-tensor::kernels`.
pub const RULES: &[&str] = &["F2", "F3"];

/// Whether `id` names a known rule (used to validate `lint:allow` lists).
pub fn is_known_rule(id: &str) -> bool {
    RULES.contains(&id)
}

/// One raw rule match, before `lint:allow` filtering.
#[derive(Debug, Clone)]
pub struct RuleHit {
    /// Rule identifier.
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Byte span `[start, end)` of the offending token in the source.
    pub span: (u32, u32),
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

/// The one module allowed to contain raw float reductions: its fixed
/// reduction trees ARE the determinism contract (DESIGN.md §9), and it is
/// audited as a unit.
const KERNELS_PATH: &str = "crates/tensor/src/kernels.rs";

/// Keywords that neither end an operand nor continue a method chain.
const KEYWORDS: &[&str] = &[
    "as", "async", "break", "const", "continue", "dyn", "else", "enum", "extern", "fn", "for",
    "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return",
    "static", "struct", "trait", "type", "unsafe", "use", "where", "while",
];

/// Tokens that, right after an F2 comparand, bind it tighter than `==`
/// or continue it (a call, a field, a cast, arithmetic).
const TIGHTER_AFTER: &[&str] = &[
    ".", "(", "[", "?", "::", "!", "as", "*", "/", "%", "+", "-", "<<", ">>", "&", "^", "|",
];

/// Tokens that, right before an F2 comparand, bind it tighter than `==`.
const TIGHTER_BEFORE: &[&str] = &[
    ".", "::", "!", "as", "*", "/", "%", "+", "-", "<<", ">>", "&", "^", "|",
];

/// Binary operators a `let` initializer may not contain at its top level
/// and still be one `as f32`/`as f64` cast (`<`, `>`, `>>` are generics).
const BINARY_OPS: &[&str] = &[
    "+", "-", "*", "/", "%", "&&", "||", "==", "!=", "<=", ">=", "&", "|", "^", "<<", "..", "..=",
    "=",
];

/// Keywords that start an item or a `let` whose header may hold a `,`
/// at its own depth (generics, a `where` clause, a type): a test-gated
/// one ends at its body or its `;`, not there.
const ITEM_KEYWORDS: &[&str] = &[
    "async", "const", "enum", "fn", "impl", "let", "static", "struct", "trait", "type", "union",
    "unsafe",
];

/// Named float constants that make an F2 comparand fragile.
const FRAGILE_CONSTS: &[&str] = &["NAN", "INFINITY", "NEG_INFINITY", "EPSILON"];

/// Runs F2 and F3 over one file's tokens.
pub fn scan(toks: &[Token], class: &FileClass, rel_path: &str) -> Vec<RuleHit> {
    let mut s = Scanner {
        toks,
        partner: partners(toks),
        f2: !class.is_test_file,
        f3: !class.is_test_file && !class.is_bench_crate && rel_path != KERNELS_PATH,
        frames: vec![Frame::default()],
        pending: Vec::new(),
        lets: Vec::new(),
        gate: None,
        hits: Vec::new(),
    };
    let mut i = 0;
    while i < toks.len() {
        i = s.step(i);
    }
    s.hits.sort_by_key(|h| (h.line, h.span.0));
    s.hits
}

/// Bindings a scope declares, each with whether it is a float scalar.
type Locals = Vec<(String, bool)>;

#[derive(Debug, Default)]
struct Frame {
    /// A loop or closure body, where `acc +=` repeats.
    reduces: bool,
    /// An expression-bodied closure: no delimiters of its own.
    expr_body: bool,
    test: bool,
    debug_assert: bool,
    /// A fn body whose return type is `f32`/`f64` (F3(e)).
    float_ret: bool,
    locals: Locals,
}

struct Scanner<'t> {
    toks: &'t [Token],
    /// Each delimiter's partner index.
    partner: Vec<Option<usize>>,
    f2: bool,
    f3: bool,
    frames: Vec<Frame>,
    /// Frames announced by a keyword (`fn`, `for`, `while`, `loop`,
    /// `if let`) or a braced closure, each opened by the next `{` at its
    /// depth.
    pending: Vec<(usize, Frame)>,
    /// `let` bindings, declared at the `;` (this token index) ending the
    /// statement.
    lets: Vec<(usize, Locals)>,
    /// Depth of a test-gated item whose body has not opened yet, and
    /// whether a `,` at that depth ends it (a field, variant, argument or
    /// arm does; an item does not).
    gate: Option<(usize, bool)>,
    hits: Vec<RuleHit>,
}

fn partners(toks: &[Token]) -> Vec<Option<usize>> {
    let mut partner = vec![None; toks.len()];
    let mut open = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match (t.kind, t.text.as_str()) {
            (TokenKind::Op, "(" | "[" | "{") => open.push(i),
            (TokenKind::Op, ")" | "]" | "}") => {
                if let Some(o) = open.pop() {
                    partner[o] = Some(i);
                    partner[i] = Some(o);
                }
            }
            _ => {}
        }
    }
    partner
}

impl Scanner<'_> {
    fn text(&self, i: usize) -> &str {
        self.toks.get(i).map_or("", |t| t.text.as_str())
    }

    fn kind(&self, i: usize) -> Option<TokenKind> {
        self.toks.get(i).map(|t| t.kind)
    }

    /// The identifier at `i`, if it is one and not a keyword.
    fn name(&self, i: usize) -> Option<&str> {
        let t = self.toks.get(i)?;
        (t.kind == TokenKind::Ident && !KEYWORDS.contains(&t.text.as_str()))
            .then_some(t.text.as_str())
    }

    fn partner(&self, i: usize) -> Option<usize> {
        self.partner.get(i).copied().flatten()
    }

    /// A name or a literal.
    fn is_atom(&self, i: usize) -> bool {
        self.name(i).is_some()
            || matches!(
                self.kind(i),
                Some(TokenKind::Int | TokenKind::Float | TokenKind::Str | TokenKind::Char)
            )
    }

    /// Whether the token at `i` can end an operand, so that a following
    /// `|` or `-` is binary.
    fn ends_operand(&self, i: usize) -> bool {
        self.is_atom(i) || matches!(self.text(i), ")" | "]" | "}" | "?")
    }

    /// First index in `from..end` whose token is one of `want`, skipping
    /// delimited groups and, with `angles`, `<…>` generic arguments (so a
    /// `,` or `=` inside `BTreeMap<K, V>` or `Iterator<Item = f64>` is not
    /// found).
    fn find(&self, from: usize, end: usize, want: &[&str], angles: bool) -> Option<usize> {
        let mut angle = 0i32;
        let mut k = from;
        while k < end {
            match self.text(k) {
                "<" if angles => angle += 1,
                ">" if angles => angle -= 1,
                ">>" if angles => angle -= 2,
                t if angle <= 0 && want.contains(&t) => return Some(k),
                _ => {}
            }
            k = match self.text(k) {
                "(" | "[" | "{" => self.partner(k)? + 1,
                _ => k + 1,
            };
        }
        None
    }

    fn in_test(&self) -> bool {
        self.gate.is_some() || self.frames.last().is_some_and(|f| f.test)
    }

    /// `debug_assert!` arguments are exempt: a tolerance check inside an
    /// assertion is stripped in release and cannot steer the run's
    /// numerics, so its reduction order is not part of the contract.
    fn f3_active(&self) -> bool {
        self.f3 && !self.in_test() && !self.frames.last().is_some_and(|f| f.debug_assert)
    }

    fn is_float_local(&self, name: &str) -> bool {
        self.frames
            .iter()
            .rev()
            .flat_map(|f| f.locals.iter().rev())
            .find(|(n, _)| n == name)
            .is_some_and(|&(_, float)| float)
    }

    fn hit(&mut self, rule: &'static str, i: usize, message: String) {
        if let Some(t) = self.toks.get(i) {
            self.hits.push(RuleHit {
                rule,
                line: t.line,
                span: (t.start, t.end),
                message,
            });
        }
    }

    fn float_reduction_hit(&mut self, i: usize, what: &str) {
        self.hit(
            "F3",
            i,
            format!(
                "ad-hoc float reduction ({what}) outside asyncfl-tensor::kernels — \
                 reduction order is the determinism contract (DESIGN.md §9); \
                 route through kernels::sum_seq/kernels::mean_seq or the fixed-tree kernels"
            ),
        );
    }

    /// Handles the token at `i`; returns the next index to visit.
    fn step(&mut self, i: usize) -> usize {
        let depth = self.frames.len();
        match self.text(i) {
            "#" => return self.attribute(i),
            "(" | "[" | "{" => self.open(i),
            ")" | "]" | "}" => self.close(i),
            "," | ";" => {
                self.end_expr_closures();
                let depth = self.frames.len();
                let comma = self.text(i) == ",";
                if self
                    .gate
                    .is_some_and(|(d, commas)| d == depth && (commas || !comma))
                {
                    self.gate = None;
                }
                if comma {
                    return i + 1;
                }
                self.pending.retain(|&(d, _)| d < depth);
                let (declared, rest) = std::mem::take(&mut self.lets)
                    .into_iter()
                    .partition(|&(end, _)| end == i);
                self.lets = rest;
                if let Some(top) = self.frames.last_mut() {
                    top.locals.extend(declared.into_iter().flat_map(|(_, l)| l));
                }
            }
            "fn" => self.fn_signature(i),
            "for" if self.text(i + 1) != "<" && !self.in_impl_header(i) => {
                let locals = self
                    .find(i + 1, self.toks.len(), &["in"], false)
                    .map(|end| self.bindings(i + 1, end))
                    .unwrap_or_default();
                self.announce(depth, true, false, locals);
            }
            "while" | "loop" => self.announce(depth, true, false, Vec::new()),
            "if" if self.text(i + 1) == "let" => {
                let locals = self
                    .find(i + 2, self.toks.len(), &["="], false)
                    .map(|end| self.bindings(i + 2, end))
                    .unwrap_or_default();
                self.announce(depth, false, false, locals);
            }
            "let" if !matches!(self.text(i.wrapping_sub(1)), "if" | "while") => self.let_stmt(i),
            "|" | "||" if i == 0 || !self.ends_operand(i - 1) => return self.closure(i),
            "==" | "!="
                if self.f2 && !self.in_test() && (self.lhs_fragile(i) || self.rhs_fragile(i)) =>
            {
                let op = self.text(i).to_string();
                self.hit(
                    "F2",
                    i,
                    format!(
                        "float {op} against a nonzero literal is rounding-fragile (and \
                         always false for NaN); compare with an epsilon or use \
                         is_nan()/is_infinite()"
                    ),
                );
            }
            // F3(c) — `acc += x` on a known-float local inside a loop or
            // closure body is a sum reduction in disguise.
            "+=" if self.f3_active() && self.frames.iter().any(|f| f.reduces) => {
                if let Some(name) = self.name(i.wrapping_sub(1)) {
                    if !matches!(self.text(i.wrapping_sub(2)), "." | "::" | "*")
                        && self.is_float_local(name)
                    {
                        let what = format!("`{name} +=` in a loop");
                        self.float_reduction_hit(i, &what);
                    }
                }
            }
            // F3(a) — explicitly float-typed reductions.
            "sum" | "product"
                if self.f3_active()
                    && self.text(i.wrapping_sub(1)) == "."
                    && self.text(i + 1) == "::"
                    && self.text(i + 2) == "<"
                    && matches!(self.text(i + 3), "f32" | "f64")
                    && self.text(i + 4) == ">" =>
            {
                let what = format!(".{}::<float>()", self.text(i));
                self.float_reduction_hit(i, &what);
            }
            "fold" if self.f3_active() && self.text(i.wrapping_sub(1)) == "." => self.fold(i),
            _ => {}
        }
        i + 1
    }

    /// Skips an attribute; a test-gating one (`#[test]`, `#[cfg(test)]`,
    /// any attribute naming `test` and not `not`) gates the item that
    /// follows, up to its body's end, its `;`, or for a field, variant,
    /// argument or arm its `,`.
    fn attribute(&mut self, i: usize) -> usize {
        let open = i + 1 + usize::from(self.text(i + 1) == "!");
        let Some(close) = self.partner(open).filter(|_| self.text(open) == "[") else {
            return i + 1;
        };
        let has = |word: &str| (open..close).any(|k| self.name(k) == Some(word));
        if has("test") && !has("not") {
            self.gate = Some((self.frames.len(), !self.starts_item(close + 1)));
        }
        close + 1
    }

    /// Whether the tokens at `k`, past attributes and a visibility, start
    /// an item or a `let` rather than a field, variant, argument or arm.
    fn starts_item(&self, mut k: usize) -> bool {
        loop {
            let next = match self.text(k) {
                "#" => self.partner(k + 1),
                "pub" if self.text(k + 1) == "(" => self.partner(k + 1),
                "pub" => Some(k),
                t => return ITEM_KEYWORDS.contains(&t),
            };
            match next {
                Some(n) => k = n + 1,
                None => return false,
            }
        }
    }

    /// A frame nested in the current one: test gating and `debug_assert!`
    /// arguments extend to everything inside.
    fn child(&self) -> Frame {
        let parent = self.frames.last();
        Frame {
            test: parent.is_some_and(|f| f.test) || self.gate.is_some(),
            debug_assert: parent.is_some_and(|f| f.debug_assert),
            ..Frame::default()
        }
    }

    fn open(&mut self, i: usize) {
        let depth = self.frames.len();
        let mut frame = self.child();
        frame.debug_assert |= self.text(i.wrapping_sub(1)) == "!"
            && self
                .name(i.wrapping_sub(2))
                .is_some_and(|m| m.starts_with("debug_assert"));
        if self.text(i) == "{" {
            if self.gate.is_some_and(|(d, _)| d == depth) {
                self.gate = None;
            }
            self.pending.retain(|&(d, _)| d <= depth);
            if let Some((_, p)) = self.pending.pop_if(|&mut (d, _)| d == depth) {
                frame.reduces = p.reduces;
                frame.float_ret = p.float_ret;
                frame.locals = p.locals;
            }
        }
        self.frames.push(frame);
    }

    fn close(&mut self, i: usize) {
        self.end_expr_closures();
        if self.text(i) == "}" && self.frames.last().is_some_and(|f| f.float_ret) {
            self.fn_tail(i);
        }
        let depth = self.frames.len();
        if depth > 1 {
            self.frames.pop();
        }
        if self.gate.is_some_and(|(d, _)| d == depth) {
            self.gate = None;
        }
        self.pending.retain(|&(d, _)| d < depth);
    }

    fn end_expr_closures(&mut self) {
        while self.frames.last().is_some_and(|f| f.expr_body) {
            self.frames.pop();
        }
    }

    fn announce(&mut self, depth: usize, reduces: bool, float_ret: bool, locals: Locals) {
        let frame = Frame {
            reduces,
            float_ret,
            locals,
            ..Frame::default()
        };
        self.pending.push((depth, frame));
    }

    /// Whether the `for` at `i` is the one in an `impl Trait for Type`
    /// header: an `impl` precedes it in the same statement.
    fn in_impl_header(&self, i: usize) -> bool {
        let mut k = i;
        while k > 0 {
            let p = k - 1;
            match self.text(p) {
                ";" | "{" | "}" => return false,
                "impl" => return true,
                ")" | "]" => match self.partner(p) {
                    Some(o) => k = o,
                    None => return false,
                },
                _ => k = p,
            }
        }
        false
    }

    /// Identifiers a pattern in `from..end` binds, all declared non-float
    /// (a summary, not a pattern parser): lowercase names that are not
    /// paths, calls, struct names or field labels.
    fn bindings(&self, from: usize, end: usize) -> Locals {
        (from..end)
            .filter_map(|k| {
                let name = self.name(k)?;
                let lower = name.starts_with(|c: char| c.is_lowercase() || c == '_');
                let next = self.text(k + 1);
                (lower
                    && self.text(k.wrapping_sub(1)) != "::"
                    && !matches!(next, "(" | "::" | "{" | "!" | ":"))
                .then(|| (name.to_string(), false))
            })
            .collect()
    }

    /// The name a pattern in `from..end` binds when it is one plain
    /// binding (`x`, `mut x`, `ref x`): the only case a type propagates.
    fn single_binding(&self, from: usize, end: usize) -> Option<String> {
        let mut k = from;
        while matches!(self.text(k), "ref" | "mut") && k < end {
            k += 1;
        }
        (k + 1 == end).then(|| self.name(k).map(str::to_string))?
    }

    /// Whether the type in `from..end` is a bare `f32`/`f64`, possibly
    /// behind references or `mut`.
    fn is_float_type(&self, from: usize, end: usize) -> bool {
        let mut k = from;
        while k < end
            && (matches!(self.text(k), "&" | "&&" | "mut")
                || self.kind(k) == Some(TokenKind::Lifetime))
        {
            k += 1;
        }
        k + 1 == end && matches!(self.text(k), "f32" | "f64")
    }

    /// Whether a `let` initializer in `from..end` makes the binding a float
    /// scalar: a float literal, a negated one, or one `as f32`/`as f64`
    /// cast.
    fn is_floatish(&self, from: usize, end: usize) -> bool {
        let mut k = from;
        while k < end && matches!(self.text(k), "-" | "!" | "*" | "&") {
            k += 1;
        }
        if self.text(k) == "(" && self.partner(k) == Some(end - 1) {
            return self.is_floatish(k + 1, end - 1);
        }
        if k + 1 == end {
            return self.kind(k) == Some(TokenKind::Float);
        }
        k + 3 <= end
            && self.text(end - 2) == "as"
            && matches!(self.text(end - 1), "f32" | "f64")
            && self.find(k, end - 2, BINARY_OPS, true).is_none()
    }

    /// Index of the `<` opening the turbofish whose last token is at `gt`,
    /// when a `::` precedes it.
    fn turbofish_start(&self, gt: usize) -> Option<usize> {
        let mut angle = 0i32;
        for k in (0..=gt).rev() {
            angle += match self.text(k) {
                ">" => 1,
                ">>" => 2,
                "<" => -1,
                _ => 0,
            };
            if angle <= 0 {
                return (self.text(k.checked_sub(1)?) == "::").then_some(k);
            }
        }
        None
    }

    /// First index of the postfix chain (`recv.a::<T>(…)[…]?.b`) whose
    /// token at `k` is known to belong to it.
    fn chain_start(&self, mut k: usize) -> usize {
        while k > 0 {
            let p = k - 1;
            let right_is_atom = self.is_atom(k);
            let next = match self.text(p) {
                ")" | "]" => self.partner(p),
                "." | "::" | "?" => Some(p),
                ">" | ">>" => self.turbofish_start(p),
                "!" if self.name(p.wrapping_sub(1)).is_some()
                    && matches!(self.text(k), "(" | "[" | "{") =>
                {
                    Some(p)
                }
                _ if self.is_atom(p) && !right_is_atom => Some(p),
                _ => None,
            };
            match next {
                Some(n) => k = n,
                None => break,
            }
        }
        k
    }

    /// If the tokens before `end` close a method chain whose last call is
    /// one of `names` (no turbofish), possibly parenthesized, the index of
    /// that method name and of the chain's (or outer parenthesis') start.
    fn last_call(&self, end: usize, names: &[&str]) -> Option<(usize, usize)> {
        let close = end.checked_sub(1)?;
        let open = self.partner(close).filter(|_| self.text(close) == ")")?;
        let name = open.checked_sub(1)?;
        if names.contains(&self.text(name)) && self.text(name.wrapping_sub(1)) == "." {
            return Some((name, self.chain_start(name - 1)));
        }
        let (name, start) = self.last_call(close, names)?;
        (start == open + 1).then_some((name, open))
    }

    /// Splits a parameter list in `from..close` at its top-level commas
    /// into `(start, colon, end)`: pattern, then type after the colon.
    fn params(&self, from: usize, close: usize) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        let mut p = from;
        while p < close {
            let end = self.find(p, close, &[","], true).unwrap_or(close);
            out.push((p, self.find(p, end, &[":"], false).unwrap_or(end), end));
            p = end + 1;
        }
        out
    }

    fn fn_signature(&mut self, i: usize) {
        if self.name(i + 1).is_none() {
            return; // a `fn(…) -> T` pointer type
        }
        let Some(k) = self.find(i + 2, self.toks.len(), &["("], true) else {
            return;
        };
        let Some(close) = self.partner(k) else {
            return;
        };
        let mut locals = Vec::new();
        for (p, colon, end) in self.params(k + 1, close) {
            if let Some(name) = self.single_binding(p, colon) {
                locals.push((name, self.is_float_type(colon + 1, end)));
            }
        }
        let float_ret = self.text(close + 1) == "->"
            && self
                .find(close + 2, self.toks.len(), &["{", ";", "where"], true)
                .is_some_and(|end| self.is_float_type(close + 2, end));
        let depth = self.frames.len();
        self.announce(depth, false, float_ret, locals);
    }

    fn let_stmt(&mut self, i: usize) {
        let Some(end) = self.find(i + 1, self.toks.len(), &[";"], false) else {
            return;
        };
        let pat_end = self.find(i + 1, end, &[":", "="], false).unwrap_or(end);
        let (ty, eq) = if self.text(pat_end) == ":" {
            let eq = self.find(pat_end + 1, end, &["="], true).unwrap_or(end);
            (Some((pat_end + 1, eq)), eq)
        } else {
            (None, pat_end)
        };
        let float_ty = ty.is_some_and(|(a, b)| self.is_float_type(a, b));
        // F3(d): `let s: f64 = xs.iter().sum();` — the annotation types
        // the reduction.
        if float_ty && eq < end && self.f3_active() {
            if let Some((name, _)) = self
                .last_call(end, &["sum", "product"])
                .filter(|&(_, s)| s == eq + 1)
            {
                let what = format!(".{}()", self.text(name));
                self.float_reduction_hit(name, &what);
            }
        }
        let locals = match self.single_binding(i + 1, pat_end) {
            Some(name) => {
                let float = match ty {
                    Some(_) => float_ty,
                    None => eq < end && self.is_floatish(eq + 1, end),
                };
                vec![(name, float)]
            }
            None => self.bindings(i + 1, pat_end),
        };
        self.lets.push((end, locals));
    }

    /// Opens a closure's frame: its parameters shadow outer bindings.
    fn closure(&mut self, i: usize) -> usize {
        let (params, body) = if self.text(i) == "||" {
            (Vec::new(), i + 1)
        } else {
            let Some(close) = self.find(i + 1, self.toks.len(), &["|"], false) else {
                return i + 1;
            };
            (self.params(i + 1, close), close + 1)
        };
        let locals = params
            .into_iter()
            .flat_map(|(p, colon, _)| self.bindings(p, colon));
        let locals = locals.collect();
        let depth = self.frames.len();
        if matches!(self.text(body), "{" | "->") {
            self.announce(depth, true, false, locals);
        } else {
            let frame = Frame {
                reduces: true,
                expr_body: true,
                locals,
                ..self.child()
            };
            self.frames.push(frame);
        }
        body
    }

    /// F2 comparand: a nonzero float literal or a fragile named constant
    /// starting at `k`; returns the index after it.
    fn fragile_operand(&self, k: usize) -> Option<usize> {
        self.operand(k, &|k| {
            let t = self.toks.get(k)?;
            if t.kind == TokenKind::Float {
                return (!float_literal_is_zero(&t.text)).then_some(k + 1);
            }
            self.name(k)?;
            let mut e = k;
            while self.text(e + 1) == "::" && self.name(e + 2).is_some() {
                e += 2;
            }
            FRAGILE_CONSTS.contains(&self.text(e)).then_some(e + 1)
        })
    }

    /// The index after an operand at `k` that is `leaf` under any unary
    /// minuses and parentheses.
    fn operand(&self, k: usize, leaf: &dyn Fn(usize) -> Option<usize>) -> Option<usize> {
        match self.text(k) {
            "-" => self.operand(k + 1, leaf),
            "(" => {
                let close = self.partner(k)?;
                (self.operand(k + 1, leaf)? == close).then_some(close + 1)
            }
            _ => leaf(k),
        }
    }

    fn rhs_fragile(&self, op: usize) -> bool {
        self.fragile_operand(op + 1)
            .is_some_and(|end| !TIGHTER_AFTER.contains(&self.text(end)))
    }

    fn lhs_fragile(&self, op: usize) -> bool {
        let Some(mut start) = op.checked_sub(1) else {
            return false;
        };
        if let Some(open) = self.partner(start).filter(|_| self.text(start) == ")") {
            start = open;
        }
        while self.text(start.wrapping_sub(1)) == "::" && self.name(start.wrapping_sub(2)).is_some()
        {
            start -= 2;
        }
        if self.fragile_operand(start) != Some(op) {
            return false;
        }
        while start > 0
            && self.text(start - 1) == "-"
            && !(start > 1 && self.ends_operand(start - 2))
        {
            start -= 1;
        }
        // An operand before a parenthesized comparand makes it call arguments.
        start == 0
            || !(TIGHTER_BEFORE.contains(&self.text(start - 1)) || self.ends_operand(start - 1))
    }

    /// F3(b) — fold with a float seed. Max/min folds are exempt: they
    /// compute an order-independent extremum, so reduction order cannot
    /// change the result.
    fn fold(&mut self, i: usize) {
        let Some(close) = self.partner(i + 1).filter(|_| self.text(i + 1) == "(") else {
            return;
        };
        let seed_end = self.find(i + 2, close, &[","], false).unwrap_or(close);
        let float = |k| (self.kind(k) == Some(TokenKind::Float)).then_some(k + 1);
        if self.operand(i + 2, &float) != Some(seed_end) {
            return;
        }
        // The combiner is the last argument; a closure's `|a, b|` has commas.
        let combiner_end = if self.text(close - 1) == "," {
            close - 1
        } else {
            close
        };
        if seed_end < combiner_end && self.is_extremum(seed_end + 1, combiner_end) {
            return;
        }
        self.float_reduction_hit(i, ".fold(<float literal>, …)");
    }

    /// Whether a fold combiner in `from..end` computes an order-independent
    /// extremum: an `f64::max`/`f64::min` path, or a closure whose body is
    /// a single `.max(…)`/`.min(…)` call (e.g. `|acc, x| acc.max(x.abs())`).
    fn is_extremum(&self, from: usize, end: usize) -> bool {
        if (from..end).all(|k| self.name(k).is_some() || self.text(k) == "::") {
            return matches!(self.text(end - 1), "max" | "min");
        }
        let from = if self.text(from) == "move" {
            from + 1
        } else {
            from
        };
        let body = match self.text(from) {
            "||" => from + 1,
            "|" => match self.find(from + 1, end, &["|"], false) {
                Some(p) => p + 1,
                None => return false,
            },
            _ => return false,
        };
        self.last_call(end, &["max", "min"])
            .is_some_and(|(_, start)| start == body)
    }

    /// F3(e): a float-returning fn whose tail expression is a bare
    /// `.sum()`/`.product()` — the return type annotates the reduction.
    fn fn_tail(&mut self, close: usize) {
        if !self.f3_active() {
            return;
        }
        let Some((name, _)) = self
            .last_call(close, &["sum", "product"])
            .filter(|&(_, start)| matches!(self.text(start.wrapping_sub(1)), "{" | ";" | "}"))
        else {
            return;
        };
        let what = format!(".{}()", self.text(name));
        self.float_reduction_hit(name, &what);
    }
}
