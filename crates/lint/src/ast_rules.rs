//! AST-level rule checks: F2 float equality, F3 float-reduction policy
//! and P2 unchecked indexing.
//!
//! The walker threads two pieces of context a token scan cannot see: a
//! float-local dataflow map (`let acc: f64` / float-literal initializers /
//! float fn params) so `acc += x` inside a loop is recognized as a
//! reduction, and the loop/closure nesting depth. Test-gated items come
//! from parsed attributes.

use crate::ast::{
    BinOp, Block, Expr, ExprKind, File, FnItem, Item, ItemKind, Lit, MacroCall, Span, Stmt, TypeRef,
};
use crate::engine::FileClass;
use crate::rules::RuleHit;
use crate::tokenizer::float_literal_is_zero;

/// The one module allowed to contain raw float reductions and raw indexing:
/// its fixed reduction trees ARE the determinism contract (DESIGN.md §9),
/// and it is audited as a unit.
const KERNELS_PATH: &str = "crates/tensor/src/kernels.rs";

/// Crates whose non-test code is subject to P2 (unchecked indexing): the
/// hot paths that ROADMAP scale work will churn.
const P2_CRATES: &[&str] = &["tensor", "ml", "sim", "core"];

/// Runs every AST rule over one parsed file.
pub fn scan(file: &File, class: &FileClass, rel_path: &str) -> Vec<RuleHit> {
    let mut w = Walker {
        is_kernels: rel_path == KERNELS_PATH,
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
        hits: Vec::new(),
    };
    for item in &file.items {
        w.walk_item(item);
    }
    w.hits.sort_by_key(|h| (h.line, h.span.0));
    w.hits
}

struct Walker {
    is_kernels: bool,
    p2_applies: bool,
    f2_applies: bool,
    f3_applies: bool,
    in_test: bool,
    loop_depth: usize,
    closure_depth: usize,
    debug_assert_depth: usize,
    /// Stack of lexical scopes mapping binding name → "is a float scalar".
    float_locals: Vec<std::collections::BTreeMap<String, bool>>,
    hits: Vec<RuleHit>,
}

impl Walker {
    fn hit(&mut self, rule: &'static str, span: Span, message: String) {
        self.hits.push(RuleHit {
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
            ExprKind::Struct { fields, rest, .. } => {
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
    }

    fn method_call_rules(
        &mut self,
        name: &str,
        name_span: Span,
        turbofish: &[String],
        args: &[Expr],
    ) {
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
