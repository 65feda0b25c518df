//! AST-level rule checks: the scope-aware re-expression of D1–D4/F1/F2/P1
//! plus the rule families the token engine cannot see (F3 float-reduction
//! policy, P2 unchecked indexing).
//!
//! The walker threads three pieces of context the token scan never had:
//! the per-file symbol table ([`FileScope`]) so `std::collections::HashMap`
//! and a local `HashMap` alias are distinguished; a float-local dataflow
//! map (`let acc: f64` / float-literal initializers / float fn params) so
//! `acc += x` inside a loop is recognized as a reduction; and the loop/
//! closure nesting depth. Test-gated items are computed from parsed
//! attributes instead of the old token heuristic.

use crate::ast::{
    BinOp, Block, Expr, ExprKind, File, FnItem, Item, ItemKind, LineIndex, Lit, MacroCall, Span,
    Stmt, TypeRef,
};
use crate::engine::FileClass;
use crate::rules::RuleHit;
use crate::scope::{FileScope, Resolved};
use crate::tokenizer::{float_literal_is_zero, Lexed, TokenKind};

/// One `Event::<Kind>` construction site, collected for the workspace-level
/// X1 contract-drift check.
#[derive(Debug, Clone)]
pub struct EventKindUse {
    /// The snake_case event kind (as `Event::kind()` renders it).
    pub kind: String,
    /// 1-based line of the construction.
    pub line: u32,
    /// Byte span of the path.
    pub span: (u32, u32),
}

/// Everything the AST pass produces for one file.
#[derive(Debug, Default)]
pub struct AstScan {
    /// Raw rule hits, before `lint:allow` filtering.
    pub hits: Vec<RuleHit>,
    /// `Event::<Kind>` constructions found in non-test code.
    pub event_kinds: Vec<EventKindUse>,
}

/// The one module allowed to contain raw float reductions and raw indexing:
/// its fixed reduction trees ARE the determinism contract (DESIGN.md §9),
/// and it is audited as a unit.
const KERNELS_PATH: &str = "crates/tensor/src/kernels.rs";

/// Crates whose non-test code is subject to P2 (unchecked indexing): the
/// hot paths that ROADMAP scale work will churn.
const P2_CRATES: &[&str] = &["tensor", "ml", "sim", "core"];

/// Runs every AST rule over one parsed file.
pub fn scan(
    file: &File,
    scope: &FileScope,
    class: &FileClass,
    rel_path: &str,
    lexed: &Lexed,
    index: &LineIndex,
) -> AstScan {
    let mut w = Walker {
        scope,
        class,
        is_kernels: rel_path == KERNELS_PATH,
        p1_applies: !class.is_bench_crate
            && !class.is_test_file
            && !class.is_binary
            && !class.is_example,
        p2_applies: class
            .crate_name
            .as_deref()
            .is_some_and(|c| P2_CRATES.contains(&c))
            && !class.is_test_file
            && !class.is_binary
            && !class.is_example,
        f2_applies: !class.is_test_file,
        f3_applies: !class.is_test_file && !class.is_bench_crate,
        in_test: class.is_test_file,
        loop_depth: 0,
        closure_depth: 0,
        debug_assert_depth: 0,
        float_locals: vec![Default::default()],
        out: AstScan::default(),
    };
    for item in &file.items {
        w.walk_item(item);
    }
    let test_lines = test_line_set(file, index, class.is_test_file);
    w.out
        .hits
        .extend(name_resolution_hits(lexed, scope, class, &test_lines));
    w.out.hits.sort_by_key(|h| (h.line, h.span.0));
    w.out
}

/// Marks every line covered by a test-gated item.
fn test_line_set(file: &File, index: &LineIndex, whole_file: bool) -> Vec<(u32, u32)> {
    if whole_file {
        return vec![(0, u32::MAX)];
    }
    let mut spans = Vec::new();
    fn walk(items: &[Item], index: &LineIndex, out: &mut Vec<(u32, u32)>) {
        for item in items {
            if item.test_gated {
                let (first, _) = index.line_col(item.span.start);
                let (last, _) = index.line_col(item.span.end.saturating_sub(1));
                out.push((first, last));
                continue;
            }
            match &item.kind {
                ItemKind::Mod {
                    items: Some(inner), ..
                } => walk(inner, index, out),
                ItemKind::Impl { items, .. } | ItemKind::Trait { items, .. } => {
                    walk(items, index, out);
                }
                _ => {}
            }
        }
    }
    walk(&file.items, index, &mut spans);
    spans
}

fn line_in(spans: &[(u32, u32)], line: u32) -> bool {
    spans.iter().any(|&(a, b)| a <= line && line <= b)
}

/// Names whose resolution decides D1/D2/D4: the token positions come from
/// the lexer (so type positions, struct fields and signatures are covered),
/// the *meaning* comes from the scope table.
fn name_resolution_hits(
    lexed: &Lexed,
    scope: &FileScope,
    class: &FileClass,
    test_lines: &[(u32, u32)],
) -> Vec<RuleHit> {
    let toks = &lexed.tokens;
    let mut hits = Vec::new();
    let d1_applies = !class.is_bench_crate && !class.is_test_file;
    let d2_applies = !class.is_bench_crate && !class.is_telemetry_crate;
    let d3_applies = !class.is_test_file;
    let d4_applies = !class.is_telemetry_crate;

    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let tested = line_in(test_lines, t.line);
        let next_is = |s: &str| {
            toks.get(i + 1)
                .is_some_and(|n| n.kind == TokenKind::Op && n.text == s)
        };
        let then_ident = |s: &str| {
            toks.get(i + 2)
                .is_some_and(|n| n.kind == TokenKind::Ident && n.text == s)
        };

        // D1 — nondeterministic collections, resolution-aware. Fires on
        // the name `HashMap`/`HashSet` unless the file defines that name
        // itself, and on any alias whose import resolves into a hash
        // collection.
        if d1_applies && !tested {
            let hashy = |name: &str| name == "HashMap" || name == "HashSet";
            let mut flagged: Option<&str> = None;
            if hashy(&t.text) && scope.resolve_name(&t.text) != Resolved::Local {
                flagged = Some(t.text.as_str());
            } else if let Resolved::Import(full) = scope.resolve_name(&t.text) {
                if full.last().is_some_and(|l| hashy(l)) && full.first() != Some(&t.text) {
                    flagged = Some(if full.last().is_some_and(|l| l == "HashMap") {
                        "HashMap"
                    } else {
                        "HashSet"
                    });
                }
            }
            if let Some(which) = flagged {
                let replacement = if which == "HashMap" {
                    "BTreeMap"
                } else {
                    "BTreeSet"
                };
                hits.push(RuleHit {
                    rule: "D1",
                    line: t.line,
                    span: (t.start, t.end),
                    message: format!(
                        "{} iteration order is nondeterministic; filter verdicts and \
                         aggregation must be reproducible — use {replacement} or a sorted Vec",
                        which
                    ),
                });
            }
        }

        // D2 — ambient entropy / wall clock.
        if d2_applies {
            if t.text == "thread_rng" || t.text == "from_entropy" {
                hits.push(RuleHit {
                    rule: "D2",
                    line: t.line,
                    span: (t.start, t.end),
                    message: format!(
                        "{} draws ambient entropy; derive a seeded StdRng from the run \
                         seed so filter decisions replay bit-identically",
                        t.text
                    ),
                });
            }
            if t.text == "SystemTime"
                && next_is("::")
                && then_ident("now")
                && scope.resolve_name("SystemTime") != Resolved::Local
            {
                hits.push(RuleHit {
                    rule: "D2",
                    line: t.line,
                    span: (t.start, t.end),
                    message: "SystemTime::now makes behaviour depend on wall-clock time; \
                              thread virtual time through instead"
                        .to_string(),
                });
            }
        }

        // D4 — the sanctioned wall clock lives in asyncfl-telemetry.
        if d4_applies
            && t.text == "Instant"
            && next_is("::")
            && then_ident("now")
            && scope.resolve_name("Instant") != Resolved::Local
        {
            hits.push(RuleHit {
                rule: "D4",
                line: t.line,
                span: (t.start, t.end),
                message: "Instant::now() bypasses the sanctioned wall clock; use \
                          asyncfl_telemetry::Stopwatch so all timing reads one \
                          auditable source"
                    .to_string(),
            });
        }

        // D3 — hermetic build: no paths into replaced external crates.
        if d3_applies
            && !tested
            && (t.text == "rand" || t.text == "crossbeam" || t.text == "parking_lot")
            && next_is("::")
        {
            let replacement = match t.text.as_str() {
                "rand" => "asyncfl_rng",
                "crossbeam" => "std::sync::mpsc",
                _ => "std::sync::Mutex/RwLock",
            };
            hits.push(RuleHit {
                rule: "D3",
                line: t.line,
                span: (t.start, t.end),
                message: format!(
                    "{}:: pulls an external crate back into the runtime graph and breaks \
                     the offline build; use {replacement} instead",
                    t.text
                ),
            });
        }
    }
    hits
}

struct Walker<'a> {
    scope: &'a FileScope,
    class: &'a FileClass,
    is_kernels: bool,
    p1_applies: bool,
    p2_applies: bool,
    f2_applies: bool,
    f3_applies: bool,
    in_test: bool,
    loop_depth: usize,
    closure_depth: usize,
    debug_assert_depth: usize,
    /// Stack of lexical scopes mapping binding name → "is a float scalar".
    float_locals: Vec<std::collections::BTreeMap<String, bool>>,
    out: AstScan,
}

impl<'a> Walker<'a> {
    fn hit(&mut self, rule: &'static str, span: Span, message: String) {
        self.out.hits.push(RuleHit {
            rule,
            line: span.line,
            span: (span.start, span.end),
            message,
        });
    }

    fn declare(&mut self, name: &str, is_float: bool) {
        if let Some(top) = self.float_locals.last_mut() {
            top.insert(name.to_string(), is_float);
        }
    }

    fn is_float_local(&self, name: &str) -> bool {
        for scope in self.float_locals.iter().rev() {
            if let Some(&f) = scope.get(name) {
                return f;
            }
        }
        false
    }

    fn walk_item(&mut self, item: &Item) {
        let was_test = self.in_test;
        self.in_test |= item.test_gated;
        match &item.kind {
            ItemKind::Fn(f) => self.walk_fn(f),
            ItemKind::ConstStatic { init: Some(e), .. } => {
                self.walk_expr(e);
            }
            ItemKind::Impl { items, .. }
            | ItemKind::Trait { items, .. }
            | ItemKind::Mod {
                items: Some(items), ..
            } => {
                for it in items {
                    self.walk_item(it);
                }
            }
            ItemKind::Macro(mac) => self.walk_macro(mac),
            _ => {}
        }
        self.in_test = was_test;
    }

    fn walk_fn(&mut self, f: &FnItem) {
        let Some(body) = &f.body else { return };
        self.float_locals.push(Default::default());
        for (name, ty) in &f.params {
            if let Some(n) = name {
                let is_float = ty.as_ref().is_some_and(TypeRef::is_float_scalar);
                self.declare(n.clone().as_str(), is_float);
            }
        }
        // F3(e): a float-returning fn whose tail expression is a bare
        // `.sum()`/`.product()` — the return type annotates the reduction.
        if self.f3_active() {
            if let (Some(ret), Some(tail)) = (&f.ret, body.tail_expr()) {
                if ret.is_float_scalar() {
                    if let Some((name, span)) = bare_reduction_call(tail) {
                        self.float_reduction_hit(name, span);
                    }
                }
            }
        }
        self.walk_block_inner(body);
        self.float_locals.pop();
    }

    fn f3_active(&self) -> bool {
        // debug_assert! args are exempt: a tolerance check inside an
        // assertion is stripped in release and cannot steer the run's
        // numerics, so its reduction order is not part of the contract.
        self.f3_applies && !self.in_test && !self.is_kernels && self.debug_assert_depth == 0
    }

    fn float_reduction_hit(&mut self, what: &str, span: Span) {
        self.hit(
            "F3",
            span,
            format!(
                "ad-hoc float reduction ({what}) outside asyncfl-tensor::kernels — \
                 reduction order is the determinism contract (DESIGN.md §9); \
                 route through kernels::sum_seq/kernels::mean_seq or the fixed-tree kernels"
            ),
        );
    }

    fn walk_block(&mut self, block: &Block) {
        self.float_locals.push(Default::default());
        self.walk_block_inner(block);
        self.float_locals.pop();
    }

    fn walk_block_inner(&mut self, block: &Block) {
        for stmt in &block.stmts {
            self.walk_stmt(stmt);
        }
    }

    fn walk_stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Let {
                pat, ty, init, els, ..
            } => {
                if let Some(e) = init {
                    self.walk_expr(e);
                    // F3(d): `let s: f64 = xs.iter().sum();` — the
                    // annotation types the reduction.
                    if self.f3_active() {
                        if let Some(t) = ty {
                            if t.is_float_scalar() {
                                if let Some((name, span)) = bare_reduction_call(e) {
                                    self.float_reduction_hit(name, span);
                                }
                            }
                        }
                    }
                }
                if let Some(b) = els {
                    self.walk_block(b);
                }
                // Record binding float-ness for the += dataflow.
                if let Some(name) = &pat.single {
                    let is_float = match ty {
                        Some(t) => t.is_float_scalar(),
                        None => init.as_ref().is_some_and(expr_is_floatish),
                    };
                    self.declare(name, is_float);
                } else {
                    for b in &pat.bindings {
                        self.declare(b, false);
                    }
                }
            }
            Stmt::Expr { expr, .. } => self.walk_expr(expr),
            Stmt::Item(item) => self.walk_item(item),
        }
    }

    fn walk_macro(&mut self, mac: &MacroCall) {
        let is_debug_assert = mac.path.last().starts_with("debug_assert");
        // P1: panic! in library code.
        if self.p1_applies && !self.in_test && mac.path.last() == "panic" {
            self.hit(
                "P1",
                mac.path.span,
                "panic! in library code aborts the whole server; return a \
                 Result or justify with a lint:allow"
                    .to_string(),
            );
        }
        if is_debug_assert {
            self.debug_assert_depth += 1;
        }
        for arg in &mac.args {
            self.walk_expr(arg);
        }
        if is_debug_assert {
            self.debug_assert_depth -= 1;
        }
    }

    fn walk_expr(&mut self, expr: &Expr) {
        match &expr.kind {
            ExprKind::Path(_) | ExprKind::Lit(_) | ExprKind::Opaque => {}
            ExprKind::Unary(e) | ExprKind::Ref(e) | ExprKind::Try(e) | ExprKind::Await(e) => {
                self.walk_expr(e);
            }
            ExprKind::Field(e) => self.walk_expr(e),
            ExprKind::Cast { expr: e, .. } => self.walk_expr(e),
            ExprKind::Jump(v) => {
                if let Some(e) = v {
                    self.walk_expr(e);
                }
            }
            ExprKind::Binary {
                op,
                op_text,
                op_span,
                lhs,
                rhs,
            } => {
                // F2 — float equality against nonzero literals/constants.
                if self.f2_applies
                    && !self.in_test
                    && matches!(op, BinOp::Eq | BinOp::Ne)
                    && (expr_is_fragile_float(lhs) || expr_is_fragile_float(rhs))
                {
                    self.hit(
                        "F2",
                        *op_span,
                        format!(
                            "float {op_text} against a nonzero literal is rounding-fragile (and \
                             always false for NaN); compare with an epsilon or use \
                             is_nan()/is_infinite()"
                        ),
                    );
                }
                self.walk_expr(lhs);
                self.walk_expr(rhs);
            }
            ExprKind::Assign { lhs, rhs } => {
                self.walk_expr(lhs);
                self.walk_expr(rhs);
            }
            ExprKind::AssignOp {
                op_text,
                op_span,
                lhs,
                rhs,
            } => {
                // F3(c) — `acc += x` on a known-float local inside a loop
                // or closure body is a sum reduction in disguise.
                if self.f3_active()
                    && op_text == "+="
                    && (self.loop_depth > 0 || self.closure_depth > 0)
                {
                    if let ExprKind::Path(p) = &lhs.kind {
                        if p.segments.len() == 1 && self.is_float_local(&p.segments[0]) {
                            self.float_reduction_hit(
                                &format!("`{} +=` in a loop", p.segments[0]),
                                *op_span,
                            );
                        }
                    }
                }
                self.walk_expr(lhs);
                self.walk_expr(rhs);
            }
            ExprKind::Call { callee, args } => {
                self.walk_expr(callee);
                for a in args {
                    self.walk_expr(a);
                }
            }
            ExprKind::MethodCall {
                recv,
                name,
                name_span,
                turbofish,
                args,
            } => {
                self.method_call_rules(name, *name_span, turbofish, args);
                self.walk_expr(recv);
                for a in args {
                    self.walk_expr(a);
                }
            }
            ExprKind::Index {
                recv,
                index,
                is_range,
            } => {
                // P2 — unchecked indexing on hot paths. Range slicing is
                // included: `&xs[a..b]` panics exactly like `xs[i]`.
                if self.p2_applies
                    && !self.in_test
                    && !self.is_kernels
                    && self.debug_assert_depth == 0
                {
                    let what = if *is_range {
                        "range slicing"
                    } else {
                        "indexing"
                    };
                    self.hit(
                        "P2",
                        expr.span,
                        format!(
                            "unchecked {what} `[…]` can panic mid-run on a hot path; use \
                             .get()/.get_mut(), an iterator, or justify the invariant with \
                             a lint:allow"
                        ),
                    );
                }
                self.walk_expr(recv);
                self.walk_expr(index);
            }
            ExprKind::Macro(mac) => self.walk_macro(mac),
            ExprKind::Block(b) => self.walk_block(b),
            ExprKind::If {
                cond,
                pat,
                then,
                else_,
            } => {
                self.walk_expr(cond);
                self.float_locals.push(Default::default());
                if let Some(p) = pat {
                    for b in &p.bindings {
                        self.declare(b, false);
                    }
                }
                self.walk_block_inner(then);
                self.float_locals.pop();
                if let Some(e) = else_ {
                    self.walk_expr(e);
                }
            }
            ExprKind::While { cond, body } => {
                self.walk_expr(cond);
                self.loop_depth += 1;
                self.walk_block(body);
                self.loop_depth -= 1;
            }
            ExprKind::Loop(body) => {
                self.loop_depth += 1;
                self.walk_block(body);
                self.loop_depth -= 1;
            }
            ExprKind::For { pat, iter, body } => {
                self.walk_expr(iter);
                self.loop_depth += 1;
                self.float_locals.push(Default::default());
                for b in &pat.bindings {
                    self.declare(b, false);
                }
                self.walk_block_inner(body);
                self.float_locals.pop();
                self.loop_depth -= 1;
            }
            ExprKind::Match { scrutinee, arms } => {
                self.walk_expr(scrutinee);
                for (pat, guard, body) in arms {
                    self.float_locals.push(Default::default());
                    for b in &pat.bindings {
                        self.declare(b, false);
                    }
                    if let Some(g) = guard {
                        self.walk_expr(g);
                    }
                    self.walk_expr(body);
                    self.float_locals.pop();
                }
            }
            ExprKind::Closure { params, body } => {
                self.closure_depth += 1;
                self.float_locals.push(Default::default());
                for b in &params.bindings {
                    self.declare(b, false);
                }
                self.walk_expr(body);
                self.float_locals.pop();
                self.closure_depth -= 1;
            }
            ExprKind::Range { lo, hi } => {
                if let Some(e) = lo {
                    self.walk_expr(e);
                }
                if let Some(e) = hi {
                    self.walk_expr(e);
                }
            }
            ExprKind::Struct { path, fields, rest } => {
                self.collect_event_kind(path, expr.span);
                for (_, v) in fields {
                    if let Some(e) = v {
                        self.walk_expr(e);
                    }
                }
                if let Some(e) = rest {
                    self.walk_expr(e);
                }
            }
            ExprKind::Tuple(es) | ExprKind::Array(es) => {
                for e in es {
                    self.walk_expr(e);
                }
            }
            ExprKind::Repeat { elem, len } => {
                self.walk_expr(elem);
                self.walk_expr(len);
            }
        }
        // Event path constructions without struct braces (unit-ish uses
        // like match arms construct nothing, so only `ExprKind::Struct`
        // and call-form `Event::X(…)` matter; calls have a Path callee).
        if let ExprKind::Call { callee, .. } = &expr.kind {
            if let ExprKind::Path(p) = &callee.kind {
                self.collect_event_kind(p, expr.span);
            }
        }
    }

    fn method_call_rules(
        &mut self,
        name: &str,
        name_span: Span,
        turbofish: &[String],
        args: &[Expr],
    ) {
        // F1 — NaN-unsafe comparator (applies to test code too).
        if name == "partial_cmp" {
            self.hit(
                "F1",
                name_span,
                "partial_cmp(..).unwrap()/expect() panics on NaN and poisons sort \
                 order; use f64::total_cmp for a NaN-safe total order"
                    .to_string(),
            );
        }
        // P1 — panic-freedom.
        if self.p1_applies && !self.in_test && (name == "unwrap" || name == "expect") {
            self.hit(
                "P1",
                name_span,
                format!(
                    ".{name}() can abort a long training run mid-flight; return an error, \
                     use unwrap_or/match, or justify with a lint:allow"
                ),
            );
        }
        if self.f3_active() {
            // F3(a) — explicitly float-typed reductions.
            if (name == "sum" || name == "product")
                && turbofish.iter().any(|t| t == "f32" || t == "f64")
            {
                self.float_reduction_hit(&format!(".{name}::<float>()"), name_span);
            }
            // F3(b) — fold with a float seed. Max/min folds are exempt:
            // they compute an order-independent extremum, so reduction
            // order cannot change the result.
            if name == "fold"
                && args.first().is_some_and(expr_is_floatish_literal)
                && !args.get(1).is_some_and(is_order_independent_combiner)
            {
                self.float_reduction_hit(".fold(<float literal>, …)", name_span);
            }
        }
    }

    /// Records `Event::Kind { … }` / `Event::Kind(…)` constructions for
    /// the X1 drift check. `Event` must resolve to the telemetry crate's
    /// event type (or be used inside the telemetry crate itself).
    fn collect_event_kind(&mut self, path: &crate::ast::Path, span: Span) {
        if self.in_test {
            return;
        }
        if path.segments.len() < 2 {
            return;
        }
        let n = path.segments.len();
        if path.segments[n - 2] != "Event" {
            return;
        }
        let is_event = if n == 2 {
            // Bare `Event::Kind` — meaning comes from the import map.
            match self.scope.resolve_name("Event") {
                Resolved::Import(full) => {
                    full.first().is_some_and(|c| c == "asyncfl_telemetry")
                        || (self.class.is_telemetry_crate
                            && full.last().is_some_and(|l| l == "Event"))
                }
                Resolved::Local => self.class.is_telemetry_crate,
                Resolved::Unresolved => self
                    .scope
                    .globs()
                    .iter()
                    .any(|g| g.first().is_some_and(|c| c == "asyncfl_telemetry")),
            }
        } else {
            // Qualified `…::Event::Kind` — canonicalize the prefix.
            let canon = self.scope.canonicalize(path);
            canon.first().is_some_and(|c| c == "asyncfl_telemetry")
                || (self.class.is_telemetry_crate
                    && canon
                        .first()
                        .is_some_and(|c| matches!(c.as_str(), "crate" | "super" | "self")))
        };
        if !is_event {
            return;
        }
        let variant = &path.segments[n - 1];
        if !variant.starts_with(char::is_uppercase) {
            return;
        }
        self.out.event_kinds.push(EventKindUse {
            kind: camel_to_snake(variant),
            line: span.line,
            span: (span.start, span.end),
        });
    }
}

/// CamelCase → snake_case, matching `Event::kind()`.
pub fn camel_to_snake(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    for (i, c) in name.chars().enumerate() {
        if c.is_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// Whether an expression is (modulo unary minus/parens) a nonzero float
/// literal or a named float constant — the F2 fragile comparands.
fn expr_is_fragile_float(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Unary(inner) => expr_is_fragile_float(inner),
        ExprKind::Lit(Lit::Float(text)) => !float_literal_is_zero(text),
        ExprKind::Path(p) => matches!(p.last(), "NAN" | "INFINITY" | "NEG_INFINITY" | "EPSILON"),
        _ => false,
    }
}

/// Whether a fold combiner computes an order-independent extremum:
/// a `f64::max`/`f64::min` path, or a closure whose body is a single
/// `.max(…)`/`.min(…)` call (e.g. `|acc, x| acc.max(x.abs())`).
fn is_order_independent_combiner(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Path(p) => matches!(p.last(), "max" | "min"),
        ExprKind::Closure { body, .. } => match &body.kind {
            ExprKind::MethodCall { name, .. } => matches!(name.as_str(), "max" | "min"),
            _ => false,
        },
        _ => false,
    }
}

/// Whether an expression is a float literal (modulo unary minus).
fn expr_is_floatish_literal(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Unary(inner) => expr_is_floatish_literal(inner),
        ExprKind::Lit(Lit::Float(_)) => true,
        _ => false,
    }
}

/// Whether a `let` initializer makes the binding a float scalar: a float
/// literal, a negated float literal, or an `as f32`/`as f64` cast.
fn expr_is_floatish(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Unary(inner) => expr_is_floatish(inner),
        ExprKind::Lit(Lit::Float(_)) => true,
        ExprKind::Cast { ty, .. } => ty.is_float_scalar(),
        _ => false,
    }
}

/// If the expression is a `.sum()` / `.product()` method call with no
/// turbofish, returns the method name and its span.
fn bare_reduction_call(e: &Expr) -> Option<(&'static str, Span)> {
    if let ExprKind::MethodCall {
        name,
        name_span,
        turbofish,
        ..
    } = &e.kind
    {
        if turbofish.is_empty() {
            if name == "sum" {
                return Some((".sum()", *name_span));
            }
            if name == "product" {
                return Some((".product()", *name_span));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::camel_to_snake;

    #[test]
    fn camel_to_snake_matches_event_kind() {
        assert_eq!(camel_to_snake("UpdateReceived"), "update_received");
        assert_eq!(camel_to_snake("SpanClosed"), "span_closed");
        assert_eq!(camel_to_snake("FilterScore"), "filter_score");
        assert_eq!(camel_to_snake("CounterAdd"), "counter_add");
    }
}
