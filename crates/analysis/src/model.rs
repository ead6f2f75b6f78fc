//! Source model: files → functions → calls and lint-relevant sites.
//!
//! The extractor walks the token stream of each file once, tracking brace
//! depth, `#[cfg(test)]` modules, `impl` blocks and `fn` items. For every
//! function it records the name, the impl type it belongs to, the argument
//! list shape, every call site in the body (with an optional `Type::`
//! qualifier), and the raw body token span so passes can run their own
//! pattern matchers. Resolution is name-based and deliberately
//! over-approximate: a method call `.read(...)` edges to *every* known
//! `read` — for a checker, reporting too much reachability is safe,
//! missing a path is not.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, TokKind, Token};

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Called function name (last path segment).
    pub name: String,
    /// `Some("Type")` for `Type::name(..)` calls; `None` for bare calls and
    /// method calls.
    pub qual: Option<String>,
    /// True for `.name(..)` method-call syntax.
    pub method: bool,
    /// Identifier tokens appearing in each argument position, in order. The
    /// split is lexical (top-level commas), so a closure argument may smear
    /// across positions — over-approximate, which is safe for taint.
    pub args: Vec<Vec<String>>,
    /// 1-based source line of the call.
    pub line: u32,
    /// Token index of the callee name, relative to the enclosing body span.
    pub tok: usize,
    /// True when the call sits lexically inside a metadata transaction: the
    /// argument list of a `with_meta_txn(...)` call (the closure body lives
    /// there) or between `begin_meta_txn` and `end_meta_txn`.
    pub in_txn: bool,
}

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct Func {
    /// Bare function name.
    pub name: String,
    /// The `impl` type the function sits in, if any.
    pub impl_type: Option<String>,
    /// Root-relative path of the defining file (forward slashes).
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// True for `#[test]` functions and anything inside `#[cfg(test)]`.
    pub is_test: bool,
    /// Parameter names, in order, excluding any `self` receiver.
    pub params: Vec<String>,
    /// Whether the first parameter is a `self` receiver.
    pub has_self: bool,
    /// Call sites in the body.
    pub calls: Vec<Call>,
    /// Body token span (indices into the owning file's token vector).
    pub body: (usize, usize),
}

/// One lexed file plus its extracted functions.
#[derive(Debug)]
pub struct SourceFile {
    /// Root-relative path (forward slashes).
    pub path: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Functions defined in this file.
    pub funcs: Vec<usize>,
}

/// The whole scanned workspace.
#[derive(Debug, Default)]
pub struct Model {
    /// Every scanned file, keyed by its index.
    pub files: Vec<SourceFile>,
    /// Every extracted function.
    pub funcs: Vec<Func>,
    /// name → function indices.
    pub by_name: HashMap<String, Vec<usize>>,
}

impl Model {
    /// Loads and parses every `.rs` file under `root/<dir>` for each listed
    /// directory (recursively). Missing directories are skipped — the passes
    /// report what they could not find themselves.
    pub fn load(root: &Path, dirs: &[&str]) -> std::io::Result<Model> {
        let mut model = Model::default();
        for d in dirs {
            let base = root.join(d);
            let mut stack = vec![base];
            while let Some(dir) = stack.pop() {
                let entries = match std::fs::read_dir(&dir) {
                    Ok(e) => e,
                    Err(_) => continue,
                };
                let mut paths: Vec<PathBuf> =
                    entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
                paths.sort();
                for p in paths {
                    if p.is_dir() {
                        stack.push(p);
                    } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
                        let src = std::fs::read_to_string(&p)?;
                        let rel = p
                            .strip_prefix(root)
                            .unwrap_or(&p)
                            .to_string_lossy()
                            .replace('\\', "/");
                        model.add_file(rel, &src);
                    }
                }
            }
        }
        model.index();
        Ok(model)
    }

    /// Parses one file's source into the model (exposed for fixture tests).
    pub fn add_file(&mut self, path: String, src: &str) {
        let tokens = lex(src);
        let funcs = extract_funcs(&path, &tokens);
        let mut idxs = Vec::new();
        for f in funcs {
            idxs.push(self.funcs.len());
            self.funcs.push(f);
        }
        self.files.push(SourceFile {
            path,
            tokens,
            funcs: idxs,
        });
    }

    /// Builds the name index; call after the last `add_file`.
    pub fn index(&mut self) {
        self.by_name.clear();
        for (i, f) in self.funcs.iter().enumerate() {
            self.by_name.entry(f.name.clone()).or_default().push(i);
        }
    }

    /// The file record for a root-relative path, if scanned.
    pub fn file(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }

    /// Functions a call site may land on (see module docs for the
    /// over-approximation rules).
    pub fn resolve(&self, caller: usize, call: &Call) -> Vec<usize> {
        let cands = match self.by_name.get(&call.name) {
            Some(c) => c,
            None => return Vec::new(),
        };
        let caller_type = self.funcs[caller].impl_type.clone();
        cands
            .iter()
            .copied()
            .filter(|&i| {
                let f = &self.funcs[i];
                if f.is_test {
                    return false;
                }
                match (&call.qual, call.method) {
                    // Type-qualified: the impl type must match.
                    (Some(q), _) => f.impl_type.as_deref() == Some(q.as_str()),
                    // Method call: any impl's method of that name.
                    (None, true) => f.impl_type.is_some() || f.has_self,
                    // Bare call: free functions, or an associated fn of the
                    // caller's own impl type.
                    (None, false) => f.impl_type.is_none() || f.impl_type == caller_type,
                }
            })
            .collect()
    }

    /// Like [`Model::resolve`], but additionally requires the callee's
    /// parameter count to match the call site's argument count. Name-based
    /// resolution alone smears common method names (`read`, `remove`, `get`)
    /// across every impl; arity cuts most of those accidental edges. Used by
    /// the dataflow passes, where cross-impl smearing turns into bogus
    /// interprocedural paths; the lexical passes keep the plain
    /// over-approximation.
    pub fn resolve_arity(&self, caller: usize, call: &Call) -> Vec<usize> {
        self.resolve(caller, call)
            .into_iter()
            .filter(|&i| {
                let f = &self.funcs[i];
                let mut expect = call.args.len();
                // `Type::method(recv, ..)` passes the receiver explicitly.
                if f.has_self && call.qual.is_some() && !call.method {
                    expect = expect.saturating_sub(1);
                }
                f.params.len() == expect
            })
            .collect()
    }
}

/// Tracks one nesting level while scanning a file.
#[derive(Debug)]
enum Scope {
    /// A `{}` block with no special meaning.
    Block,
    /// A module; `test` records whether it was `#[cfg(test)]`.
    Mod { test: bool },
    /// An `impl` block for the named type.
    Impl { ty: String },
}

fn attr_is_testy(attr: &str) -> bool {
    // Matches #[test], #[cfg(test)], #[tokio::test] and friends.
    attr.contains("test")
}

/// Extracts every function item from a token stream.
fn extract_funcs(path: &str, toks: &[Token]) -> Vec<Func> {
    let mut funcs = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending_attrs: Vec<String> = Vec::new();
    let mut i = 0usize;
    let n = toks.len();
    while i < n {
        let t = &toks[i];
        if t.is_punct("#") {
            // Attribute: collect `#[ ... ]` (or `#![ ... ]`) as one string.
            let mut j = i + 1;
            if j < n && toks[j].is_punct("!") {
                j += 1;
            }
            if j < n && toks[j].is_punct("[") {
                let mut depth = 0i32;
                let start = j;
                while j < n {
                    if toks[j].is_punct("[") {
                        depth += 1;
                    } else if toks[j].is_punct("]") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                let text: String = toks[start..=j.min(n - 1)]
                    .iter()
                    .map(|t| t.text.as_str())
                    .collect::<Vec<_>>()
                    .join(" ");
                pending_attrs.push(text);
                i = j + 1;
                continue;
            }
            i += 1;
            continue;
        }
        if t.is_punct("{") {
            scopes.push(Scope::Block);
            pending_attrs.clear();
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            scopes.pop();
            i += 1;
            continue;
        }
        if t.is_ident("mod") && i + 1 < n && toks[i + 1].kind == TokKind::Ident {
            let test = pending_attrs.iter().any(|a| attr_is_testy(a)) || in_test(&scopes);
            pending_attrs.clear();
            // Find the `{` (or `;` for out-of-line modules).
            let mut j = i + 2;
            while j < n && !toks[j].is_punct("{") && !toks[j].is_punct(";") {
                j += 1;
            }
            if j < n && toks[j].is_punct("{") {
                scopes.push(Scope::Mod { test });
            }
            i = j + 1;
            continue;
        }
        if t.is_ident("impl") {
            // Skip generics, then read the type path; `impl Trait for Type`
            // takes the type after `for`.
            let mut j = i + 1;
            j = skip_generics(toks, j);
            let first = read_type_name(toks, &mut j);
            let mut ty = first;
            // Scan to the `{`, watching for `for`.
            while j < n && !toks[j].is_punct("{") && !toks[j].is_punct(";") {
                if toks[j].is_ident("for") {
                    let mut k = j + 1;
                    ty = read_type_name(toks, &mut k);
                    j = k;
                    continue;
                }
                j += 1;
            }
            if j < n && toks[j].is_punct("{") {
                scopes.push(Scope::Impl { ty });
            }
            pending_attrs.clear();
            i = j + 1;
            continue;
        }
        if t.is_ident("fn") && (i == 0 || !toks[i - 1].is_punct(".")) {
            let is_test = pending_attrs.iter().any(|a| attr_is_testy(a)) || in_test(&scopes);
            pending_attrs.clear();
            if let Some((func, next)) = parse_fn(path, toks, i, &scopes, is_test) {
                funcs.push(func);
                i = next;
                continue;
            }
        }
        if !t.is_punct("#") {
            // Any other item token invalidates pending attributes once we
            // hit something that is clearly not the attributed item opener.
            if t.is_ident("use") || t.is_punct(";") {
                pending_attrs.clear();
            }
        }
        i += 1;
    }
    funcs
}

fn in_test(scopes: &[Scope]) -> bool {
    scopes
        .iter()
        .any(|s| matches!(s, Scope::Mod { test: true }))
}

fn cur_impl(scopes: &[Scope]) -> Option<String> {
    scopes.iter().rev().find_map(|s| match s {
        Scope::Impl { ty } => Some(ty.clone()),
        _ => None,
    })
}

/// Skips a `<...>` group starting at `j` if present.
fn skip_generics(toks: &[Token], mut j: usize) -> usize {
    if j < toks.len() && toks[j].is_punct("<") {
        let mut depth = 0i32;
        while j < toks.len() {
            if toks[j].is_punct("<") {
                depth += 1;
            } else if toks[j].is_punct(">") {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
    }
    j
}

/// Reads the significant identifier of a type path (`a::b::Type` → `Type`,
/// skipping `&`, `mut` and leading lifetimes).
fn read_type_name(toks: &[Token], j: &mut usize) -> String {
    let mut name = String::new();
    while *j < toks.len() {
        let t = &toks[*j];
        if t.is_punct("&") || t.is_ident("mut") || t.kind == TokKind::Lifetime || t.is_ident("dyn")
        {
            *j += 1;
            continue;
        }
        if t.kind == TokKind::Ident {
            name = t.text.clone();
            *j += 1;
            // Swallow path segments and a trailing generic list.
            while *j < toks.len() && toks[*j].is_punct("::") {
                *j += 1;
                if *j < toks.len() && toks[*j].kind == TokKind::Ident {
                    name = toks[*j].text.clone();
                    *j += 1;
                }
            }
            *j = skip_generics(toks, *j);
            return name;
        }
        break;
    }
    name
}

/// Parses one `fn` item starting at index `at` (pointing at `fn`). Returns
/// the function and the index to resume scanning from — the *inside* of the
/// body, so nested items are still visited by the main loop.
fn parse_fn(
    path: &str,
    toks: &[Token],
    at: usize,
    scopes: &[Scope],
    is_test: bool,
) -> Option<(Func, usize)> {
    let n = toks.len();
    let mut j = at + 1;
    if j >= n || toks[j].kind != TokKind::Ident {
        return None;
    }
    let name = toks[j].text.clone();
    let line = toks[j].line;
    j += 1;
    j = skip_generics(toks, j);
    if j >= n || !toks[j].is_punct("(") {
        return None;
    }
    // Parameter list.
    let mut paren = 0i32;
    let mut angle = 0i32;
    let mut bracket = 0i32;
    let mut params: Vec<String> = Vec::new();
    let mut has_self = false;
    let mut cur: Vec<&Token> = Vec::new();
    let mut close = j;
    for (k, t) in toks.iter().enumerate().skip(j) {
        if t.is_punct("(") {
            paren += 1;
            if paren > 1 {
                cur.push(t);
            }
            continue;
        }
        if t.is_punct(")") {
            paren -= 1;
            if paren == 0 {
                close = k;
                finish_param(&cur, &mut params, &mut has_self);
                break;
            }
            cur.push(t);
            continue;
        }
        if t.is_punct("[") {
            bracket += 1;
        } else if t.is_punct("]") {
            bracket -= 1;
        } else if t.is_punct("<")
            && cur
                .last()
                .map(|p| p.kind == TokKind::Ident || p.is_punct("::") || p.is_punct(">"))
                .unwrap_or(false)
        {
            angle += 1;
        } else if t.is_punct(">") && angle > 0 {
            angle -= 1;
        } else if t.is_punct(",") && paren == 1 && angle == 0 && bracket == 0 {
            finish_param(&cur, &mut params, &mut has_self);
            cur.clear();
            continue;
        }
        cur.push(t);
    }
    // Find the body `{` (or `;` for a bodyless signature).
    let mut j = close + 1;
    let mut angle = 0i32;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut body_open = None;
    while j < n {
        let t = &toks[j];
        if t.is_punct(";") && angle == 0 && paren == 0 && bracket == 0 {
            return Some((
                Func {
                    name,
                    impl_type: cur_impl(scopes),
                    file: path.to_string(),
                    line,
                    is_test,
                    params,
                    has_self,
                    calls: Vec::new(),
                    body: (j, j),
                },
                j + 1,
            ));
        }
        if t.is_punct("(") {
            paren += 1;
        } else if t.is_punct(")") {
            paren -= 1;
        } else if t.is_punct("[") {
            bracket += 1;
        } else if t.is_punct("]") {
            bracket -= 1;
        } else if t.is_punct("<")
            && j > 0
            && (toks[j - 1].kind == TokKind::Ident
                || toks[j - 1].is_punct("::")
                || toks[j - 1].is_punct(">"))
        {
            angle += 1;
        } else if t.is_punct(">") && angle > 0 {
            angle -= 1;
        } else if t.is_punct("{") && angle == 0 && paren == 0 && bracket == 0 {
            body_open = Some(j);
            break;
        }
        j += 1;
    }
    let open = body_open?;
    // Match the closing brace.
    let mut depth = 0i32;
    let mut end = open;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                end = k;
                break;
            }
        }
    }
    let calls = extract_calls(&toks[open..=end]);
    Some((
        Func {
            name,
            impl_type: cur_impl(scopes),
            file: path.to_string(),
            line,
            is_test,
            params,
            has_self,
            calls,
            body: (open, end),
        },
        open + 1,
    ))
}

fn finish_param(cur: &[&Token], params: &mut Vec<String>, has_self: &mut bool) {
    // Name = first identifier token that is not a reference/mut marker.
    for t in cur {
        if t.kind == TokKind::Ident {
            if t.text == "mut" {
                continue;
            }
            if t.text == "self" {
                *has_self = true;
                return;
            }
            params.push(t.text.clone());
            return;
        }
        if t.kind == TokKind::Lifetime {
            continue;
        }
        if t.is_punct("&") {
            continue;
        }
        return;
    }
}

/// Marks the token spans of `body` that sit inside a metadata transaction:
/// the argument list of a `with_meta_txn(...)` or `with_txn(...)` call (the
/// filesystem-agnostic transaction layer's name), or the region between a
/// `begin_meta_txn` call and the following `end_meta_txn`.
fn txn_mask(body: &[Token]) -> Vec<bool> {
    let n = body.len();
    let mut mask = vec![false; n];
    let mut open = false;
    let mut k = 0usize;
    while k < n {
        let t = &body[k];
        if (t.is_ident("with_meta_txn") || t.is_ident("with_txn"))
            && k + 1 < n
            && body[k + 1].is_punct("(")
        {
            let mut depth = 0i32;
            let mut j = k + 1;
            while j < n {
                if body[j].is_punct("(") {
                    depth += 1;
                } else if body[j].is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                mask[j] = true;
                j += 1;
            }
            k = j + 1;
            continue;
        }
        if t.is_ident("begin_meta_txn") {
            open = true;
        }
        if open {
            mask[k] = true;
        }
        if t.is_ident("end_meta_txn") {
            open = false;
        }
        k += 1;
    }
    mask
}

/// Collects the identifier tokens of each argument of the call whose opening
/// paren is at `open`. Arguments are split at top-level commas; an argument
/// with no identifiers (a literal) still occupies its position, and a
/// trailing comma does not create a phantom argument.
fn call_args(body: &[Token], open: usize) -> Vec<Vec<String>> {
    let n = body.len();
    let mut args: Vec<Vec<String>> = Vec::new();
    let mut cur: Vec<String> = Vec::new();
    let mut cur_tokens = 0usize;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut brace = 0i32;
    let mut j = open;
    while j < n {
        let t = &body[j];
        if t.is_punct("(") {
            if paren > 0 {
                cur_tokens += 1;
            }
            paren += 1;
            j += 1;
            continue;
        }
        if t.is_punct(")") {
            paren -= 1;
            if paren == 0 {
                break;
            }
            cur_tokens += 1;
            j += 1;
            continue;
        }
        if t.is_punct("[") {
            bracket += 1;
        } else if t.is_punct("]") {
            bracket -= 1;
        } else if t.is_punct("{") {
            brace += 1;
        } else if t.is_punct("}") {
            brace -= 1;
        } else if t.is_punct(",") && paren == 1 && bracket == 0 && brace == 0 {
            args.push(std::mem::take(&mut cur));
            cur_tokens = 0;
            j += 1;
            continue;
        } else if t.kind == TokKind::Ident {
            cur.push(t.text.clone());
        }
        cur_tokens += 1;
        j += 1;
    }
    if cur_tokens > 0 {
        args.push(cur);
    }
    args
}

/// Finds call sites inside a body token slice.
fn extract_calls(body: &[Token]) -> Vec<Call> {
    let mask = txn_mask(body);
    let mut calls = Vec::new();
    for k in 0..body.len() {
        let t = &body[k];
        if t.kind != TokKind::Ident {
            continue;
        }
        let next = body.get(k + 1);
        let callish = matches!(next, Some(nt) if nt.is_punct("("));
        if !callish {
            continue;
        }
        // Definitions are not calls.
        if k > 0 && body[k - 1].is_ident("fn") {
            continue;
        }
        // Uppercase = tuple-struct / enum-variant construction, not a call.
        if t.text
            .chars()
            .next()
            .map(|c| c.is_uppercase())
            .unwrap_or(false)
        {
            continue;
        }
        let prev = if k > 0 { Some(&body[k - 1]) } else { None };
        let (qual, method) = match prev {
            Some(p) if p.is_punct(".") => (None, true),
            Some(p) if p.is_punct("::") => {
                let q = if k >= 2 { Some(&body[k - 2]) } else { None };
                match q {
                    Some(qt)
                        if qt.kind == TokKind::Ident
                            && qt
                                .text
                                .chars()
                                .next()
                                .map(|c| c.is_uppercase())
                                .unwrap_or(false) =>
                    {
                        (Some(qt.text.clone()), false)
                    }
                    _ => (None, false),
                }
            }
            _ => (None, false),
        };
        calls.push(Call {
            name: t.text.clone(),
            qual,
            method,
            args: call_args(body, k + 1),
            line: t.line,
            tok: k,
            in_txn: mask[k],
        });
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_of(src: &str) -> Model {
        let mut m = Model::default();
        m.add_file("x.rs".into(), src);
        m.index();
        m
    }

    #[test]
    fn extracts_functions_with_impl_types_and_params() {
        let m = model_of(
            "impl Kernel { pub(crate) fn sys_open(&mut self, task: TaskId, core: usize, path: &str, flags: OpenFlags) -> KResult<i32> { helper(path) } }\nfn helper(p: &str) -> i32 { 0 }",
        );
        let f = &m.funcs[0];
        assert_eq!(f.name, "sys_open");
        assert_eq!(f.impl_type.as_deref(), Some("Kernel"));
        assert!(f.has_self);
        assert_eq!(f.params, vec!["task", "core", "path", "flags"]);
        assert_eq!(f.calls.len(), 1);
        assert_eq!(f.calls[0].name, "helper");
    }

    #[test]
    fn test_modules_and_test_fns_are_marked() {
        let m = model_of(
            "#[cfg(test)] mod tests { fn helper_in_tests() {} #[test] fn a_case() { helper_in_tests() } }\nfn real() {}",
        );
        assert!(m.funcs[0].is_test);
        assert!(m.funcs[1].is_test);
        assert!(!m.funcs[2].is_test);
    }

    #[test]
    fn qualified_and_method_calls_resolve() {
        let m = model_of(
            "impl Cache { fn fill(&mut self) {} }\nimpl Cache { fn touch(&mut self) { self.fill() } }\nfn run(c: &mut Cache) { Cache::fill(c) }",
        );
        let touch = m.funcs.iter().position(|f| f.name == "touch").unwrap();
        let run = m.funcs.iter().position(|f| f.name == "run").unwrap();
        assert_eq!(m.resolve(touch, &m.funcs[touch].calls[0]).len(), 1);
        assert_eq!(m.resolve(run, &m.funcs[run].calls[0]).len(), 1);
    }

    #[test]
    fn generic_params_do_not_split_arity() {
        let m = model_of("fn f(a: HashMap<u64, Vec<Run>>, b: u32) {}");
        assert_eq!(m.funcs[0].params, vec!["a", "b"]);
    }

    #[test]
    fn call_args_capture_idents_per_position() {
        let m = model_of("fn f(x: u64, y: u64) { g(x + 1, h(y), 3) }");
        let call = &m.funcs[0].calls[0];
        assert_eq!(call.name, "g");
        assert_eq!(call.args.len(), 3);
        assert_eq!(call.args[0], vec!["x"]);
        assert_eq!(call.args[1], vec!["h", "y"]);
        assert!(call.args[2].is_empty());
    }

    #[test]
    fn calls_inside_meta_txn_regions_are_marked() {
        let m = model_of(
            "impl Fs { fn create(&self) { self.with_meta_txn(dev, bc, |fs, dev, bc| { fs.fat_set(dev, bc) }) ; self.fat_set(dev, bc) } \
             fn raw(&self) { bc.begin_meta_txn(); bc.fat_set(dev, bc); bc.end_meta_txn(); bc.fat_set(dev, bc) } }",
        );
        let create = &m.funcs[0];
        let inside: Vec<_> = create
            .calls
            .iter()
            .filter(|c| c.name == "fat_set")
            .collect();
        assert_eq!(inside.len(), 2);
        assert!(inside[0].in_txn, "call inside with_meta_txn closure");
        assert!(!inside[1].in_txn, "call after with_meta_txn");
        let raw = &m.funcs[1];
        let inside: Vec<_> = raw.calls.iter().filter(|c| c.name == "fat_set").collect();
        assert_eq!(inside.len(), 2);
        assert!(inside[0].in_txn, "call between begin/end_meta_txn");
        assert!(!inside[1].in_txn, "call after end_meta_txn");
    }

    #[test]
    fn calls_inside_txn_layer_regions_are_marked() {
        // The filesystem-agnostic transaction layer's spelling: `with_txn`
        // closures count as transaction regions exactly like `with_meta_txn`.
        let m = model_of(
            "impl Fs { fn create(&self) { self.txn.with_txn(dev, bc, |dev, bc| { self.log_sector(bc, lba, n) }) ; self.log_sector(bc, lba, n) } }",
        );
        let create = &m.funcs[0];
        let inside: Vec<_> = create
            .calls
            .iter()
            .filter(|c| c.name == "log_sector")
            .collect();
        assert_eq!(inside.len(), 2);
        assert!(inside[0].in_txn, "call inside with_txn closure");
        assert!(!inside[1].in_txn, "call after with_txn");
    }
}
