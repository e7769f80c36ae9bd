//! The rule set.  Each rule module exposes `check(ctx, out)`; the engine
//! builds a [`FileContext`] per scanned file and runs every rule over it.
//!
//! | code | invariant |
//! |------|-----------|
//! | L001 | crate roots carry `#![forbid(unsafe_code)]` |
//! | L002 | no unbounded `mpsc::channel` in driver code |
//! | L003 | no `.unwrap()`/`.expect()` in non-test library code |
//! | L004 | hot-path functions stay allocation/format/owned-copy free |
//! | L005 | no ambient time/RNG in deterministic modules |
//! | L006 | no `Mutex`/`RwLock` on the snapshot publication path |
//! | L007 | no truncating float format specifiers in bench JSON writers |

pub mod concurrency;
pub mod determinism;
pub mod formatting;
pub mod hotpath;
pub mod panics;
pub mod structure;

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::lexer::Token;
use crate::model::SourceModel;
use std::path::{Path, PathBuf};

/// Everything a rule may inspect about one file.
pub struct FileContext<'a> {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: &'a Path,
    pub tokens: &'a [Token],
    pub model: &'a SourceModel,
    pub config: &'a Config,
    /// Indices into `model.fns` of functions in the hot-path set (from the
    /// config list plus in-source hot markers); resolved by the engine.
    pub hot_fns: &'a [usize],
}

/// Runs every rule over one file.
pub fn check_all(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    structure::check(ctx, out);
    concurrency::check(ctx, out);
    panics::check(ctx, out);
    hotpath::check(ctx, out);
    determinism::check(ctx, out);
    formatting::check(ctx, out);
}

/// Whether `rel` equals or sits under any of `prefixes` (component-wise, so
/// `src/foo.rs` matches prefix `src` but not prefix `s`).
pub fn path_matches(rel: &Path, prefixes: &[PathBuf]) -> bool {
    prefixes.iter().any(|p| rel == p || rel.starts_with(p))
}

/// Whether tokens at `i` spell the path `segments[0]::segments[1]::…`
/// (`::` is two consecutive `:` puncts in the token stream).
pub fn is_path(tokens: &[Token], i: usize, segments: &[&str]) -> bool {
    let mut pos = i;
    for (n, seg) in segments.iter().enumerate() {
        if n > 0 {
            if !(tokens.get(pos).map(|t| t.is_punct(':')).unwrap_or(false)
                && tokens
                    .get(pos + 1)
                    .map(|t| t.is_punct(':'))
                    .unwrap_or(false))
            {
                return false;
            }
            pos += 2;
        }
        if !tokens.get(pos).map(|t| t.is_ident(seg)).unwrap_or(false) {
            return false;
        }
        pos += 1;
    }
    true
}

/// Whether tokens at `i` spell a method call `.name(`; returns the index of
/// the method-name token when they do.
pub fn method_call(tokens: &[Token], i: usize, name: &str) -> Option<usize> {
    if tokens.get(i).map(|t| t.is_punct('.')).unwrap_or(false)
        && tokens.get(i + 1).map(|t| t.is_ident(name)).unwrap_or(false)
        && tokens.get(i + 2).map(|t| t.is_punct('(')).unwrap_or(false)
    {
        Some(i + 1)
    } else {
        None
    }
}
