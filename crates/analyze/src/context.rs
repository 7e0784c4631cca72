//! Per-file analysis context: which crate a file belongs to, whether it is
//! library (shipping) code, and which lines are test-only.

use crate::lexer::{Tok, TokKind};

/// The five library crates: they implement the paper's exact cost
/// accounting (and its fault-time ledgers) and are linked into every
/// consumer, so their non-test code is held to the strictest rules.
pub const LIBRARY_CRATES: [&str; 5] = ["core", "algos", "sim", "obs", "faults"];

/// Where a file sits in the workspace, derived from its relative path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileContext {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Crate directory name under `crates/` (`core`, `cli`, …), or the
    /// root package's pseudo-name `bshm` for top-level `src/`/`tests/`.
    pub crate_name: String,
    /// Whether the file is part of a strict library crate's `src/`.
    pub strict_library: bool,
    /// Whether the whole file is test/bench/example code.
    pub all_test: bool,
}

impl FileContext {
    /// Classifies a workspace-relative path.
    #[must_use]
    pub fn classify(path: &str) -> FileContext {
        let path = path.replace('\\', "/");
        let parts: Vec<&str> = path.split('/').collect();
        let crate_name = match parts.first() {
            Some(&"crates") => parts.get(1).copied().unwrap_or("").to_string(),
            _ => "bshm".to_string(),
        };
        let in_src = parts.contains(&"src");
        let all_test = parts
            .iter()
            .any(|p| matches!(*p, "tests" | "benches" | "examples"));
        let strict_library = LIBRARY_CRATES.contains(&crate_name.as_str()) && in_src && !all_test;
        FileContext {
            path,
            crate_name,
            strict_library,
            all_test,
        }
    }
}

/// Returns, for each token index, whether it lies inside test-only code:
/// a `#[cfg(test)]` module, or a `#[test]`/`#[bench]` function.
///
/// Detection is token-level: an attribute containing both `cfg` and `test`
/// (or exactly `test`/`bench`) marks the next `mod`/`fn` item, whose body
/// braces are then matched to find the region. This is the same contract
/// `cargo test` compiles under, so lines it skips are exactly the lines
/// rustc strips from release builds.
#[must_use]
pub fn test_regions(toks: &[Tok]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_punct("#") {
            i += 1;
            continue;
        }
        // Parse one attribute `#[ … ]` (or inner `#![ … ]`).
        let mut j = i + 1;
        if j < toks.len() && toks[j].is_punct("!") {
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_punct("[") {
            i += 1;
            continue;
        }
        let attr_start = j;
        let mut depth = 0i32;
        let mut attr_idents: Vec<&str> = Vec::new();
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct("[") {
                depth += 1;
            } else if t.is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == TokKind::Ident {
                attr_idents.push(&t.text);
            }
            j += 1;
        }
        let _ = attr_start;
        let is_test_attr = match attr_idents.as_slice() {
            ["test"] | ["bench"] => true,
            ids => ids.contains(&"cfg") && ids.contains(&"test"),
        };
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Skip further attributes to the item keyword.
        let mut k = j + 1;
        while k < toks.len() && toks[k].is_punct("#") {
            let mut d = 0i32;
            k += 1;
            while k < toks.len() {
                if toks[k].is_punct("[") {
                    d += 1;
                } else if toks[k].is_punct("]") {
                    d -= 1;
                    if d == 0 {
                        k += 1;
                        break;
                    }
                }
                k += 1;
            }
        }
        // The attributed item: everything to its matching close brace is
        // test code (covers `mod tests { … }`, `fn case() { … }`, and the
        // occasional `use` which has no braces and ends at `;`).
        let item_start = k;
        let mut d = 0i32;
        let mut end = item_start;
        let mut saw_brace = false;
        while end < toks.len() {
            let t = &toks[end];
            if t.is_punct("{") {
                d += 1;
                saw_brace = true;
            } else if t.is_punct("}") {
                d -= 1;
                if saw_brace && d == 0 {
                    break;
                }
            } else if t.is_punct(";") && !saw_brace {
                break;
            }
            end += 1;
        }
        for flag in in_test.iter_mut().take((end + 1).min(toks.len())).skip(i) {
            *flag = true;
        }
        i = end + 1;
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    #[test]
    fn classify_paths() {
        let c = FileContext::classify("crates/core/src/time.rs");
        assert_eq!(c.crate_name, "core");
        assert!(c.strict_library);
        assert!(!c.all_test);

        let c = FileContext::classify("crates/algos/tests/substrate_properties.rs");
        assert!(!c.strict_library);
        assert!(c.all_test);

        let c = FileContext::classify("crates/cli/src/commands.rs");
        assert_eq!(c.crate_name, "cli");
        assert!(!c.strict_library);

        let c = FileContext::classify("src/lib.rs");
        assert_eq!(c.crate_name, "bshm");
        assert!(!c.strict_library);

        let c = FileContext::classify("crates/bench/benches/throughput.rs");
        assert!(c.all_test);
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n fn helper() { x.unwrap(); }\n}\nfn after() {}\n";
        let toks = tokenize(src);
        let flags = test_regions(&toks);
        let unwrap_idx = toks.iter().position(|t| t.is_ident("unwrap")).unwrap();
        let live_idx = toks.iter().position(|t| t.is_ident("live")).unwrap();
        let after_idx = toks.iter().position(|t| t.is_ident("after")).unwrap();
        assert!(flags[unwrap_idx]);
        assert!(!flags[live_idx]);
        assert!(!flags[after_idx]);
    }

    #[test]
    fn test_fn_is_marked() {
        let src = "#[test]\nfn case() { assert!(x); }\nfn live() {}\n";
        let toks = tokenize(src);
        let flags = test_regions(&toks);
        let assert_idx = toks.iter().position(|t| t.is_ident("assert")).unwrap();
        let live_idx = toks.iter().position(|t| t.is_ident("live")).unwrap();
        assert!(flags[assert_idx]);
        assert!(!flags[live_idx]);
    }

    #[test]
    fn stacked_attributes_still_detected() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn f() { y.unwrap(); } }\n";
        let toks = tokenize(src);
        let flags = test_regions(&toks);
        let unwrap_idx = toks.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(flags[unwrap_idx]);
    }

    #[test]
    fn cfg_not_test_is_not_marked() {
        let src = "#[cfg(feature = \"extra\")]\nmod extra { fn f() { y.unwrap(); } }\n";
        let toks = tokenize(src);
        let flags = test_regions(&toks);
        let unwrap_idx = toks.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(!flags[unwrap_idx]);
    }
}
