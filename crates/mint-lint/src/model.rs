//! A lightweight item/function model built on the token stream.
//!
//! One forward pass maintains a scope stack keyed on braces.  It tracks just
//! enough structure for the rules:
//!
//! * which tokens live inside **test code** — `#[cfg(test)]` items (exact
//!   attribute match, so `cfg(not(test))` does *not* count), `#[test]`
//!   functions, and `mod tests` bodies;
//! * every **function** with its declaration line, body token range, and a
//!   qualified name (`Type::name` inside an `impl` block) so the hot-path
//!   set can name methods unambiguously.

use crate::lexer::{Token, TokenKind};

/// One analysed function.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Bare name as written after `fn`.
    pub name: String,
    /// `Type::name` inside an `impl Type` block, otherwise same as `name`.
    pub qualified: String,
    /// Line of the `fn` keyword.
    pub decl_line: u32,
    /// Token range of the body, excluding the braces.  Empty for bodyless
    /// declarations (trait methods, extern fns).
    pub body: std::ops::Range<usize>,
    /// Whether the function lives in test code.
    pub is_test: bool,
}

/// The per-file model: functions plus a per-token test-scope mask.
#[derive(Debug, Default)]
pub struct SourceModel {
    pub fns: Vec<FnInfo>,
    /// `in_test[i]` — token `i` sits inside test code.
    pub in_test: Vec<bool>,
}

#[derive(Debug)]
struct Scope {
    is_test: bool,
    impl_type: Option<String>,
    /// Index into `fns` when this scope is a function body.
    fn_idx: Option<usize>,
}

#[derive(Debug)]
enum Pending {
    Fn { idx: usize },
    Mod { is_test: bool },
    Impl { self_type: Option<String> },
}

/// Builds the model from a token stream.  `whole_file_is_test` forces every
/// token into test scope (used for files under `tests/` directories).
pub fn analyze(tokens: &[Token], whole_file_is_test: bool) -> SourceModel {
    let mut model = SourceModel {
        fns: Vec::new(),
        in_test: vec![whole_file_is_test; tokens.len()],
    };
    let mut stack: Vec<Scope> = vec![Scope {
        is_test: whole_file_is_test,
        impl_type: None,
        fn_idx: None,
    }];
    let mut pending: Option<Pending> = None;
    let mut attr_test = false;
    let mut paren_depth = 0usize;
    let mut i = 0usize;

    while i < tokens.len() {
        let tok = &tokens[i];
        let in_test_now = stack.iter().any(|s| s.is_test);
        model.in_test[i] = in_test_now;

        match tok.kind {
            TokenKind::Punct => match tok.text.as_str() {
                "#" => {
                    // Attribute: `#[...]` (outer) or `#![...]` (inner).  An
                    // inner attribute marks the *current* scope, which only
                    // matters for `#![cfg(test)]` — not used in this
                    // workspace — so both forms just feed the pending flag.
                    let mut j = i + 1;
                    if j < tokens.len() && tokens[j].is_punct('!') {
                        j += 1;
                    }
                    if j < tokens.len() && tokens[j].is_punct('[') {
                        let (body, end) = attribute_body(tokens, j);
                        if is_test_attribute(&body) {
                            attr_test = true;
                        }
                        for k in i..end.min(tokens.len()) {
                            model.in_test[k] = in_test_now;
                        }
                        i = end;
                        continue;
                    }
                }
                "(" | "[" => paren_depth += 1,
                ")" | "]" => paren_depth = paren_depth.saturating_sub(1),
                ";" if paren_depth == 0 => {
                    // Bodyless item (trait method, extern fn, `mod x;`).
                    pending = None;
                }
                "{" => {
                    let parent_test = in_test_now;
                    let parent_impl = stack.iter().rev().find_map(|s| s.impl_type.clone());
                    let scope = match pending.take() {
                        Some(Pending::Fn { idx }) => {
                            model.fns[idx].body.start = i + 1;
                            let is_test = parent_test || model.fns[idx].is_test;
                            model.fns[idx].is_test = is_test;
                            Scope {
                                is_test,
                                impl_type: parent_impl,
                                fn_idx: Some(idx),
                            }
                        }
                        Some(Pending::Mod { is_test }) => Scope {
                            is_test: parent_test || is_test,
                            impl_type: None,
                            fn_idx: None,
                        },
                        Some(Pending::Impl { self_type }) => Scope {
                            is_test: parent_test || attr_test,
                            impl_type: self_type.or(parent_impl),
                            fn_idx: None,
                        },
                        None => Scope {
                            is_test: parent_test,
                            impl_type: parent_impl,
                            fn_idx: None,
                        },
                    };
                    attr_test = false;
                    model.in_test[i] = scope.is_test || parent_test;
                    stack.push(scope);
                }
                "}" if stack.len() > 1 => {
                    if let Some(scope) = stack.pop() {
                        if let Some(idx) = scope.fn_idx {
                            model.fns[idx].body.end = i;
                        }
                    }
                }
                _ => {}
            },
            TokenKind::Ident => match tok.text.as_str() {
                "fn" => {
                    if let Some(name_tok) = tokens.get(i + 1) {
                        if name_tok.kind == TokenKind::Ident {
                            let name = name_tok.text.clone();
                            let impl_type = stack.iter().rev().find_map(|s| s.impl_type.clone());
                            let qualified = match &impl_type {
                                Some(t) => format!("{t}::{name}"),
                                None => name.clone(),
                            };
                            model.fns.push(FnInfo {
                                name,
                                qualified,
                                decl_line: tok.line,
                                body: 0..0,
                                is_test: attr_test,
                            });
                            attr_test = false;
                            pending = Some(Pending::Fn {
                                idx: model.fns.len() - 1,
                            });
                        }
                    }
                }
                "mod" => {
                    if let Some(name_tok) = tokens.get(i + 1) {
                        if name_tok.kind == TokenKind::Ident {
                            pending = Some(Pending::Mod {
                                is_test: attr_test || name_tok.text == "tests",
                            });
                            attr_test = false;
                        }
                    }
                }
                // `impl Trait` in a signature (argument or return position)
                // is a type, not a block: the pending function keeps its body.
                "impl" if !matches!(pending, Some(Pending::Fn { .. })) => {
                    let self_type = impl_self_type(tokens, i + 1);
                    pending = Some(Pending::Impl { self_type });
                }
                _ => {}
            },
            _ => {}
        }
        i += 1;
    }
    model
}

/// Collects the identifier/punct texts inside an attribute starting at the
/// `[` token; returns (body texts, index just past the closing `]`).
fn attribute_body(tokens: &[Token], open: usize) -> (Vec<String>, usize) {
    let mut body = Vec::new();
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('[') {
            depth += 1;
            if depth > 1 {
                body.push(t.text.clone());
            }
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return (body, i + 1);
            }
            body.push(t.text.clone());
        } else if depth >= 1 {
            body.push(t.text.clone());
        }
        i += 1;
    }
    (body, i)
}

/// Exact test-attribute match: `#[test]` or `#[cfg(test)]`.  Notably NOT a
/// substring test — `#[cfg(not(test))]` and `#[cfg(all(test, unix))]` do
/// not mark items as test-only for lint purposes (conservative: rules still
/// apply there).
fn is_test_attribute(body: &[String]) -> bool {
    let joined: Vec<&str> = body.iter().map(String::as_str).collect();
    matches!(joined.as_slice(), ["test"] | ["cfg", "(", "test", ")"])
}

/// Extracts the self type of an `impl` header: the last path identifier at
/// angle-depth 0 before the opening brace (or `where`), preferring the
/// segment after `for` in `impl Trait for Type`.
fn impl_self_type(tokens: &[Token], mut i: usize) -> Option<String> {
    let mut angle_depth = 0isize;
    let mut last_ident: Option<String> = None;
    while i < tokens.len() {
        let t = &tokens[i];
        match t.kind {
            TokenKind::Punct => match t.text.as_str() {
                "<" => angle_depth += 1,
                ">" => angle_depth -= 1,
                "{" | ";" => break,
                _ => {}
            },
            TokenKind::Ident if angle_depth == 0 => match t.text.as_str() {
                "where" => break,
                "for" => last_ident = None,
                "dyn" | "impl" => {}
                name => last_ident = Some(name.to_string()),
            },
            _ => {}
        }
        i += 1;
    }
    last_ident
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn build(src: &str) -> (Vec<Token>, SourceModel) {
        let out = lexer::lex(src);
        let model = analyze(&out.tokens, false);
        (out.tokens, model)
    }

    fn fn_named<'m>(model: &'m SourceModel, name: &str) -> &'m FnInfo {
        model
            .fns
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no fn {name}"))
    }

    #[test]
    fn functions_get_body_ranges() {
        let (tokens, model) = build("fn a() { let x = 1; }\nfn b() {}");
        let a = fn_named(&model, "a");
        assert!(tokens[a.body.clone()].iter().any(|t| t.is_ident("x")));
        let b = fn_named(&model, "b");
        assert!(b.body.is_empty());
    }

    #[test]
    fn impl_methods_are_qualified() {
        let (_, model) = build(
            "struct P; impl P { fn go(&self) {} }\n\
             impl<'a, T: Clone> Iterator for crate::deep::Wrapper<'a, T> {\n\
                 fn next(&mut self) -> Option<T> { None }\n\
             }",
        );
        assert_eq!(fn_named(&model, "go").qualified, "P::go");
        assert_eq!(fn_named(&model, "next").qualified, "Wrapper::next");
    }

    #[test]
    fn impl_trait_in_a_signature_does_not_steal_the_body() {
        let (tokens, model) = build(
            "struct P; impl P {\n\
                 fn each<'a>(&mut self, xs: impl Iterator<Item = &'a u8> + Clone) { walk(xs); }\n\
                 fn all(&self) -> impl Iterator<Item = u8> + '_ { make() }\n\
                 fn after(&self) { last(); }\n\
             }",
        );
        for (name, callee) in [("each", "walk"), ("all", "make"), ("after", "last")] {
            let info = fn_named(&model, name);
            assert_eq!(info.qualified, format!("P::{name}"));
            assert!(tokens[info.body.clone()].iter().any(|t| t.is_ident(callee)));
        }
    }

    #[test]
    fn cfg_test_mod_scopes_are_test() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn case() {}\n}";
        let (_, model) = build(src);
        assert!(!fn_named(&model, "lib").is_test);
        assert!(fn_named(&model, "helper").is_test);
        assert!(fn_named(&model, "case").is_test);
    }

    #[test]
    fn mod_tests_by_name_is_test() {
        let (_, model) = build("mod tests { fn t() {} }");
        assert!(fn_named(&model, "t").is_test);
    }

    #[test]
    fn cfg_not_test_is_not_test() {
        let (_, model) = build("#[cfg(not(test))]\nmod imp { fn f() {} }");
        assert!(!fn_named(&model, "f").is_test);
    }

    #[test]
    fn test_attribute_marks_fn() {
        let (_, model) = build("#[test]\nfn probe() { assert!(true); }");
        assert!(fn_named(&model, "probe").is_test);
    }

    #[test]
    fn in_test_mask_tracks_scope() {
        let src = "fn lib() { work(); }\n#[cfg(test)]\nmod tests { fn t() { check(); } }";
        let (tokens, model) = build(src);
        let work = tokens.iter().position(|t| t.is_ident("work")).unwrap();
        let check = tokens.iter().position(|t| t.is_ident("check")).unwrap();
        assert!(!model.in_test[work]);
        assert!(model.in_test[check]);
    }

    #[test]
    fn trait_methods_without_bodies_do_not_capture_braces() {
        let (_, model) = build("trait T { fn sig(&self); }\nfn after() { real(); }");
        let sig = fn_named(&model, "sig");
        assert!(sig.body.is_empty());
        let after = fn_named(&model, "after");
        assert!(!after.body.is_empty());
    }

    #[test]
    fn whole_file_test_mask() {
        let out = lexer::lex("fn integration() { x.unwrap(); }");
        let model = analyze(&out.tokens, true);
        assert!(model.in_test.iter().all(|&b| b));
        assert!(model.fns[0].is_test);
    }

    #[test]
    fn array_semicolons_do_not_clear_pending_items() {
        let (_, model) = build("fn buf(x: [u8; 4]) { use_it(x); }");
        assert!(!fn_named(&model, "buf").body.is_empty());
    }
}
