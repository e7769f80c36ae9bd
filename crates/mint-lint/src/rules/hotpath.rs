//! L004 — hot-path functions must stay allocation- and format-free.
//!
//! The ingest hot path (tokenize / LCS / template match / span parse) earns
//! its throughput by reusing caller-provided buffers; a single `format!` or
//! `.clone()` re-introduces a per-span allocation and silently erodes the
//! measured win.  The hot set is declared in `lint.toml` (qualified names)
//! or by a marker comment directly above the function.
//!
//! Banned inside a hot body: `format!`, `String::from`, `Vec::new` and the
//! owning method calls of [`OWNING_METHODS`].

use super::{is_path, method_call, FileContext};
use crate::diag::{Diagnostic, Severity};

/// Method calls that hand back a freshly owned copy of their receiver, with
/// what to say about each.  The ingest path's per-attribute
/// `key.to_owned()`s went unseen until the last three were listed.
const OWNING_METHODS: [(&str, &str); 4] = [
    ("clone", "`.clone()` deep-copies"),
    ("to_string", "`.to_string()` allocates"),
    ("to_owned", "`.to_owned()` allocates an owned copy"),
    (
        "to_ascii_lowercase",
        "`.to_ascii_lowercase()` allocates a lowered copy",
    ),
];

pub fn check(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    for &fn_idx in ctx.hot_fns {
        let info = &ctx.model.fns[fn_idx];
        let body = info.body.clone();
        for i in body.clone() {
            let t = &ctx.tokens[i];

            let found: Option<(&str, &crate::lexer::Token)> = if t.is_ident("format")
                && ctx
                    .tokens
                    .get(i + 1)
                    .map(|n| n.is_punct('!'))
                    .unwrap_or(false)
            {
                Some(("`format!` allocates a fresh String", t))
            } else if let Some(hit) = OWNING_METHODS.iter().find_map(|&(name, why)| {
                method_call(ctx.tokens, i, name).map(|at| (why, &ctx.tokens[at]))
            }) {
                Some(hit)
            } else if is_path(ctx.tokens, i, &["String", "from"]) {
                Some(("`String::from` allocates", t))
            } else if is_path(ctx.tokens, i, &["Vec", "new"]) {
                Some(("`Vec::new` defeats buffer reuse", t))
            } else {
                None
            };

            if let Some((why, tok)) = found {
                out.push(Diagnostic::new(
                    "L004",
                    Severity::Error,
                    ctx.rel_path.to_path_buf(),
                    tok.line,
                    tok.col,
                    format!(
                        "{why} inside hot-path function `{}`; reuse a \
                         caller-provided buffer instead",
                        info.qualified
                    ),
                ));
            }
        }
    }
}
