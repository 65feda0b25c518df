//! The lint AST: items, blocks, statements and expressions, with byte
//! spans, produced by [`crate::parser`].
//!
//! This is a *lint-grade* AST, not a compiler front-end: it keeps exactly
//! the structure the rule families need — method calls with turbofish (so
//! `.sum::<f64>()` is visible), index expressions, assignment operators,
//! loop/closure nesting (for the reduction dataflow in rule `F3`), `let`
//! bindings with type annotations (the walker tracks float-typed locals),
//! and macro invocations with best-effort re-parsed arguments. Everything
//! it does not understand it preserves as opaque nodes rather than failing;
//! a file that does not parse at all is a violation (see `crate::engine`).

/// A half-open byte range into the source file, plus the 1-based line the
/// node starts on. Columns are derived lazily via [`LineIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Byte offset of the first byte.
    pub start: u32,
    /// Byte offset one past the last byte.
    pub end: u32,
    /// 1-based line of `start`.
    pub line: u32,
}

impl Span {
    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
            line: self.line.min(other.line),
        }
    }
}

/// Line-start table for byte-offset → (line, column) conversion.
#[derive(Debug)]
pub struct LineIndex {
    /// Byte offset at which each 0-based line starts.
    starts: Vec<u32>,
}

impl LineIndex {
    /// Builds the index for `source`.
    pub fn new(source: &str) -> Self {
        let mut starts = vec![0u32];
        for (i, b) in source.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i as u32 + 1);
            }
        }
        Self { starts }
    }

    /// 1-based (line, column) of a byte offset. Columns count bytes from
    /// the line start, which matches what editors display for ASCII
    /// source.
    pub fn line_col(&self, offset: u32) -> (u32, u32) {
        let line = match self.starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let col = offset - self.starts[line];
        (line as u32 + 1, col + 1)
    }

    /// The full text of the 1-based `line` in `source`, without its
    /// trailing newline. Empty for out-of-range lines.
    pub fn line_text<'s>(&self, source: &'s str, line: u32) -> &'s str {
        let idx = line.saturating_sub(1) as usize;
        let Some(&start) = self.starts.get(idx) else {
            return "";
        };
        let end = self
            .starts
            .get(idx + 1)
            .map(|&e| e as usize)
            .unwrap_or(source.len());
        source[start as usize..end].trim_end_matches(['\n', '\r'])
    }
}

/// An attribute (`#[...]` or `#![...]`), summarized for test-gating.
#[derive(Debug, Clone)]
pub struct Attr {
    /// Whether the attribute gates the following item to test builds:
    /// it mentions `test` and not `not` (so `#[cfg(not(test))]` stays
    /// live code).
    pub test_gate: bool,
    /// Source span of the whole attribute.
    pub span: Span,
}

/// One segment of a path, generics erased.
pub type PathSegment = String;

/// A (possibly qualified) path: `a::b::C`. Generic arguments are parsed
/// past but not retained; turbofish on method calls is kept separately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// Path segments in source order. `crate`, `self`, `super` are kept
    /// verbatim as leading segments.
    pub segments: Vec<PathSegment>,
    /// Source span of the whole path.
    pub span: Span,
}

impl Path {
    /// The final segment, or `""` for an (impossible) empty path.
    pub fn last(&self) -> &str {
        self.segments.last().map(String::as_str).unwrap_or("")
    }
}

/// A type reference, kept as normalized text plus cheap classification.
#[derive(Debug, Clone)]
pub struct TypeRef {
    /// The type tokens joined with single spaces (`& [f64]`, `Vec < f64 >`
    /// collapse to `&[f64]` / `Vec<f64>` best-effort).
    pub text: String,
    /// Span of the type.
    pub span: Span,
}

impl TypeRef {
    /// Whether this is a bare float scalar type (`f32`/`f64`, possibly
    /// behind references or `mut`).
    pub fn is_float_scalar(&self) -> bool {
        let t = self
            .text
            .trim_start_matches(['&', ' '])
            .trim_start_matches("mut ")
            .trim();
        t == "f32" || t == "f64"
    }
}

/// Binding names introduced by a pattern. This is a summary, not a full
/// pattern tree: the rules only need names (and, for `let`, whether
/// the pattern is one plain binding so an initializer type can be
/// propagated to it).
#[derive(Debug, Clone, Default)]
pub struct PatSummary {
    /// All identifiers the pattern binds, best-effort.
    pub bindings: Vec<String>,
    /// When the pattern is a single plain binding (`x`, `mut x`, `ref x`),
    /// its name — the only case initializer types propagate.
    pub single: Option<String>,
    /// Span of the pattern.
    pub span: Span,
}

/// A macro invocation: `path!(...)`, `path![...]` or `path! {...}`.
#[derive(Debug, Clone)]
pub struct MacroCall {
    /// The macro path (usually one segment: `panic`, `debug_assert_eq`).
    pub path: Path,
    /// Arguments re-parsed as comma-separated expressions, when the body
    /// parses that way. Macros with non-expression grammars (e.g.
    /// `matches!`'s pattern arm, `macro_rules!` bodies) leave this empty.
    pub args: Vec<Expr>,
    /// Span of the whole invocation.
    pub span: Span,
}

/// Binary operators the rules distinguish; everything else is `Other`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `+`
    Add,
    /// Any other binary operator.
    Other,
}

/// Literal kinds the rules inspect.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    /// Integer literal text.
    Int(String),
    /// Float literal text (see `tokenizer::float_literal_is_zero`).
    Float(String),
    /// String/char/byte literal (content not retained).
    Other,
    /// `true` / `false`.
    Bool(bool),
}

/// Expression node.
#[derive(Debug, Clone)]
pub struct Expr {
    /// What kind of expression this is.
    pub kind: ExprKind,
    /// Source span.
    pub span: Span,
}

/// Expression kinds. Boxes keep the enum small; `Opaque` preserves spans
/// for constructs the parser recognized but the rules never inspect.
#[derive(Debug, Clone)]
pub enum ExprKind {
    /// A path expression (`x`, `a::b::C`), including lone identifiers.
    Path(Path),
    /// A literal.
    Lit(Lit),
    /// Unary `-`/`!`/`*` applied to an expression.
    Unary(Box<Expr>),
    /// Borrow `&`/`&mut`.
    Ref(Box<Expr>),
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Raw operator text (`==`, `<`, `+`, …).
        op_text: String,
        /// Operator span (diagnostics anchor here).
        op_span: Span,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Plain assignment `lhs = rhs`.
    Assign {
        /// Assignment target.
        lhs: Box<Expr>,
        /// Assigned value.
        rhs: Box<Expr>,
    },
    /// Compound assignment `lhs op= rhs`.
    AssignOp {
        /// Operator text including `=` (`+=`, `*=`, …).
        op_text: String,
        /// Operator span.
        op_span: Span,
        /// Assignment target.
        lhs: Box<Expr>,
        /// Assigned value.
        rhs: Box<Expr>,
    },
    /// A function or tuple-struct call `callee(args…)`.
    Call {
        /// The callee expression (usually a path).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// A method call `recv.name::<T…>(args…)`.
    MethodCall {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Span of the method name (diagnostics anchor here).
        name_span: Span,
        /// Turbofish type arguments as raw text, e.g. `["f64"]`.
        turbofish: Vec<String>,
        /// Arguments (excluding the receiver).
        args: Vec<Expr>,
    },
    /// Field access `recv.name` / tuple field `recv.0`.
    Field(Box<Expr>),
    /// An index expression `recv[index]`.
    Index {
        /// The indexed expression.
        recv: Box<Expr>,
        /// The index expression.
        index: Box<Expr>,
        /// Whether the index is syntactically a range (`a..b`, `..`, …) —
        /// a slicing operation rather than an element access.
        is_range: bool,
    },
    /// A macro invocation in expression position.
    Macro(MacroCall),
    /// A block expression, including `unsafe { … }`.
    Block(Block),
    /// `if cond { … } else …` (the condition of an `if let` is the
    /// scrutinee expression).
    If {
        /// Condition (or `if let` scrutinee).
        cond: Box<Expr>,
        /// Bindings introduced by an `if let` pattern, visible in `then`.
        pat: Option<PatSummary>,
        /// The `then` block.
        then: Block,
        /// The `else` branch (a Block or another If), if any.
        else_: Option<Box<Expr>>,
    },
    /// `while cond { … }` / `while let pat = e { … }`.
    While {
        /// Condition (or `while let` scrutinee).
        cond: Box<Expr>,
        /// Loop body.
        body: Block,
    },
    /// `loop { … }`.
    Loop(Block),
    /// `for pat in iter { … }`.
    For {
        /// Loop pattern bindings.
        pat: PatSummary,
        /// The iterated expression.
        iter: Box<Expr>,
        /// Loop body.
        body: Block,
    },
    /// `match scrutinee { arms… }`. Arm patterns are summarized; guards
    /// and bodies are kept as expressions.
    Match {
        /// The matched expression.
        scrutinee: Box<Expr>,
        /// `(pattern, guard, body)` per arm.
        arms: Vec<(PatSummary, Option<Expr>, Expr)>,
    },
    /// A closure `|args| body` / `move |args| body`.
    Closure {
        /// Parameter bindings.
        params: PatSummary,
        /// The closure body.
        body: Box<Expr>,
    },
    /// A range expression `a..b` / `a..=b` / `..` outside an index.
    Range {
        /// Lower bound.
        lo: Option<Box<Expr>>,
        /// Upper bound.
        hi: Option<Box<Expr>>,
    },
    /// `expr as Type`.
    Cast {
        /// The cast operand.
        expr: Box<Expr>,
        /// Target type.
        ty: TypeRef,
    },
    /// A struct literal `Path { field: expr, … }`.
    Struct {
        /// The struct (or enum-variant) path.
        path: Path,
        /// Field initializers (shorthand fields have `None`).
        fields: Vec<(String, Option<Expr>)>,
        /// The `..base` functional-update expression, if present.
        rest: Option<Box<Expr>>,
    },
    /// Tuple `(a, b, …)` or parenthesized expression (single element).
    Tuple(Vec<Expr>),
    /// Array literal `[a, b, …]`.
    Array(Vec<Expr>),
    /// Array repeat `[elem; len]`.
    Repeat {
        /// The repeated element.
        elem: Box<Expr>,
        /// The length expression.
        len: Box<Expr>,
    },
    /// `return e?` / `break e?` / `continue`.
    Jump(Option<Box<Expr>>),
    /// The `?` operator.
    Try(Box<Expr>),
    /// `.await`.
    Await(Box<Expr>),
    /// Recognized but uninspected constructs (e.g. `const { … }` blocks).
    Opaque,
}

/// A block `{ … }`.
#[derive(Debug, Clone)]
pub struct Block {
    /// Statements in order; a trailing expression is the last `Stmt::Expr`
    /// with `semi == false`.
    pub stmts: Vec<Stmt>,
    /// Span including the braces.
    pub span: Span,
}

impl Block {
    /// The block's tail expression (`{ …; expr }`), if any.
    pub fn tail_expr(&self) -> Option<&Expr> {
        match self.stmts.last() {
            Some(Stmt::Expr { expr, semi: false }) => Some(expr),
            _ => None,
        }
    }
}

/// A statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `let pat[: ty] [= init] [else { … }];`
    Let {
        /// The pattern.
        pat: PatSummary,
        /// Optional type annotation.
        ty: Option<TypeRef>,
        /// Optional initializer.
        init: Option<Expr>,
        /// Optional `else` diverging block (let-else).
        els: Option<Block>,
        /// Statement span.
        span: Span,
    },
    /// An expression statement.
    Expr {
        /// The expression.
        expr: Expr,
        /// Whether it was terminated by `;`.
        semi: bool,
    },
    /// A nested item (fn-in-fn, use-in-fn, …).
    Item(Box<Item>),
}

/// A function signature + body.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Parameter summaries: binding name (when simple) and type.
    pub params: Vec<(Option<String>, Option<TypeRef>)>,
    /// Return type, `None` for `()`.
    pub ret: Option<TypeRef>,
    /// Body; `None` for trait method declarations and `extern` fns.
    pub body: Option<Block>,
}

/// Item kinds.
#[derive(Debug, Clone)]
pub enum ItemKind {
    /// A `use` declaration (consumed, not modelled: no rule resolves names).
    Use,
    /// `fn`.
    Fn(FnItem),
    /// `struct` / `enum` / `union` — the body is skipped.
    TypeDef {
        /// The defined type's name.
        name: String,
    },
    /// `type Alias = …;` — the aliased type is skipped.
    TypeAlias {
        /// The alias name.
        name: String,
    },
    /// `const`/`static` with optional initializer expression.
    ConstStatic {
        /// The item name.
        name: String,
        /// Declared type.
        ty: Option<TypeRef>,
        /// Initializer.
        init: Option<Expr>,
    },
    /// `impl [Trait for] Type { items… }` — the header is skipped.
    Impl {
        /// Nested items (methods, consts).
        items: Vec<Item>,
    },
    /// `trait Name { items… }`.
    Trait {
        /// Trait name.
        name: String,
        /// Nested items.
        items: Vec<Item>,
    },
    /// `mod name;` or `mod name { items… }`.
    Mod {
        /// Module name.
        name: String,
        /// Inline items; `None` for out-of-line modules.
        items: Option<Vec<Item>>,
    },
    /// A macro invocation at item position, including `macro_rules!`
    /// definitions (whose bodies are templates, not code — they are not
    /// linted; see `docs/LINTS.md`).
    Macro(MacroCall),
    /// Anything else (`extern crate`, `extern` blocks, `impl` with exotic
    /// headers the parser skipped over, …) — consumed as a balanced token
    /// run.
    Opaque,
}

/// One item with its attributes.
#[derive(Debug, Clone)]
pub struct Item {
    /// The item kind.
    pub kind: ItemKind,
    /// Whether any attribute test-gates this item (`#[cfg(test)]`,
    /// `#[test]`).
    pub test_gated: bool,
    /// Source span (attributes included).
    pub span: Span,
}

/// A parsed source file.
#[derive(Debug, Clone)]
pub struct File {
    /// Top-level items.
    pub items: Vec<Item>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_index_round_trips() {
        let src = "ab\ncd\n\nxyz";
        let idx = LineIndex::new(src);
        assert_eq!(idx.line_col(0), (1, 1));
        assert_eq!(idx.line_col(1), (1, 2));
        assert_eq!(idx.line_col(3), (2, 1));
        assert_eq!(idx.line_col(6), (3, 1));
        assert_eq!(idx.line_col(7), (4, 1));
        assert_eq!(idx.line_text(src, 2), "cd");
        assert_eq!(idx.line_text(src, 4), "xyz");
        assert_eq!(idx.line_text(src, 99), "");
    }

    #[test]
    fn type_ref_float_detection() {
        let float = |t: &str| TypeRef {
            text: t.to_string(),
            span: Span::default(),
        };
        assert!(float("f64").is_float_scalar());
        assert!(float("&mut f32").is_float_scalar());
        assert!(!float("Vec<f64>").is_float_scalar());
        assert!(!float("u64").is_float_scalar());
    }
}
