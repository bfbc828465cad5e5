//! The benchmark's inputs and their known answers.
//!
//! Every answer comes from a committed reference, never from the code
//! under test at run time: lint codes from `tests/golden/lint/*.json`,
//! ladder verdicts from each rung's `// expect:` line, audit verdicts
//! from each spec's `expect_confined`, and `Distinguished` for the
//! broken twins (their whole point).

use crate::util::codes;
use nuspi_syntax::{canonical_digest, parse_process};
use std::collections::{BTreeSet, HashMap};
use std::path::Path;

/// A closed protocol spec of the zoo.
pub struct Spec {
    pub name: String,
    pub source: String,
    pub secrets: Vec<String>,
    pub expect_confined: bool,
    /// The golden lint report's diagnostic codes, sorted.
    pub lint_codes: Vec<String>,
    free: Vec<String>,
    /// Bound variables (restricted names keep their spelling: the
    /// digest numbers them within their canonical class).
    vars: Vec<String>,
}

/// One rung of the `examples/lang` ladder.
pub struct Rung {
    /// The path it is committed under (also the `file` of its requests).
    pub file: String,
    pub source: String,
    /// `secure` or `insecure`, from the rung's `// expect:` line.
    pub expect: String,
}

/// A broken-twin pair: an honest protocol and its flawed variant.
pub struct Twin {
    pub left: String,
    pub right: String,
    free: Vec<String>,
}

pub struct Cases {
    pub specs: Vec<Spec>,
    pub rungs: Vec<Rung>,
    pub twins: Vec<Twin>,
}

const KEYWORDS: [&str; 9] = ["new", "nu", "hide", "is", "let", "in", "case", "of", "suc"];

fn ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c == b'\''
}

fn ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, b'_' | b'\'' | b'#' | b'$' | b'*')
}

/// Rewrites the identifier tokens of νSPI source `src` through `map`,
/// following the parser's lexical rules (comments are copied verbatim).
pub fn rename(src: &str, map: &HashMap<String, String>) -> String {
    let b = src.as_bytes();
    let mut out = String::with_capacity(src.len() + map.len() * 8);
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if (c == b'-' || c == b'/') && b.get(i + 1) == Some(&c) {
            let end = src[i..].find('\n').map_or(b.len(), |e| i + e);
            out.push_str(&src[i..end]);
            i = end;
        } else if ident_start(c) {
            let start = i;
            while i < b.len() && ident_char(b[i]) {
                i += 1;
            }
            let word = &src[start..i];
            out.push_str(map.get(word).map_or(word, String::as_str));
        } else if c.is_ascii_digit() {
            let start = i;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
            out.push_str(&src[start..i]);
        } else {
            let ch = src[i..].chars().next().expect("in bounds");
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    out
}

/// Every identifier of `src` that is not a keyword, and the subset that
/// a `new`/`hide` binder introduces (restricted names).
fn idents(src: &str) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut seen = BTreeSet::new();
    let mut restricted = BTreeSet::new();
    let mut after_binder = false;
    let b = src.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if (c == b'-' || c == b'/') && b.get(i + 1) == Some(&c) {
            i = src[i..].find('\n').map_or(b.len(), |e| i + e);
        } else if ident_start(c) {
            let start = i;
            while i < b.len() && ident_char(b[i]) {
                i += 1;
            }
            let word = &src[start..i];
            if KEYWORDS.contains(&word) {
                after_binder = matches!(word, "new" | "nu" | "hide");
                continue;
            }
            if after_binder {
                restricted.insert(word.to_owned());
            }
            seen.insert(word.to_owned());
        } else if c.is_ascii_digit() {
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
        } else {
            i += src[i..].chars().next().map_or(1, char::len_utf8);
            if !c.is_ascii_whitespace() {
                after_binder = false;
            }
            continue;
        }
        after_binder = false;
    }
    (seen, restricted)
}

/// The free names of `src`, sorted.
fn free_names(src: &str) -> Vec<String> {
    let p = parse_process(src).expect("benchmark inputs parse");
    let mut names: Vec<String> = p
        .free_names()
        .into_iter()
        .map(|n| n.canonical().as_str().to_owned())
        .collect();
    names.sort();
    names.dedup();
    names
}

fn digest(src: &str) -> u128 {
    canonical_digest(&parse_process(src).expect("benchmark inputs parse")).0
}

fn suffixed(names: &[String], suffix: &str) -> HashMap<String, String> {
    names
        .iter()
        .map(|n| (n.clone(), format!("{n}_{suffix}")))
        .collect()
}

impl Spec {
    /// The spec with every free (public) name given `suffix`: the same
    /// work under a new cache key. Secrets that are free names are
    /// renamed in the policy too.
    pub fn cold(&self, suffix: &str) -> (String, Vec<String>) {
        let map = suffixed(&self.free, suffix);
        let secrets = self
            .secrets
            .iter()
            .map(|s| map.get(s).cloned().unwrap_or_else(|| s.clone()))
            .collect();
        (rename(&self.source, &map), secrets)
    }

    /// The spec with its bound variables given `suffix`: an α-variant,
    /// so the same cache key.
    pub fn alpha(&self, suffix: &str) -> String {
        rename(&self.source, &suffixed(&self.vars, suffix))
    }
}

impl Rung {
    /// A position-preserving reformat: trailing blanks on code lines.
    /// Every declaration keeps its line and column, so the request
    /// shares the original's cache key.
    pub fn reformat(&self, width: usize) -> String {
        let mut out = String::with_capacity(self.source.len() + 64);
        for line in self.source.lines() {
            out.push_str(line);
            if !line.contains("//") && !line.trim().is_empty() {
                out.push_str(&" ".repeat(width));
            }
            out.push('\n');
        }
        out
    }
}

impl Twin {
    /// Both sides with their free names given `suffix` (one map for
    /// both, so the pair stays twins).
    pub fn cold(&self, suffix: &str) -> (String, String) {
        let map = suffixed(&self.free, suffix);
        (rename(&self.left, &map), rename(&self.right, &map))
    }
}

fn read(root: &Path, rel: &str) -> Result<String, String> {
    std::fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))
}

/// Loads the protocol zoo, the lang ladder and the twins, with their
/// committed answers read from the checkout at `root`.
pub fn load(root: &Path) -> Result<Cases, String> {
    let mut specs = Vec::new();
    for spec in nuspi_protocols::suite() {
        let golden = read(root, &format!("tests/golden/lint/{}.json", spec.name))?;
        let mut secrets: Vec<String> = spec
            .policy
            .secrets()
            .map(|s| s.as_str().to_owned())
            .collect();
        secrets.sort();
        let free = free_names(&spec.source);
        let (all, restricted) = idents(&spec.source);
        let vars: Vec<String> = all
            .into_iter()
            .filter(|n| !free.contains(n) && !restricted.contains(n))
            .collect();
        let s = Spec {
            name: spec.name.to_owned(),
            source: spec.source.clone(),
            secrets,
            expect_confined: spec.expect_confined,
            lint_codes: codes(&golden, " "),
            free,
            vars,
        };
        // The renamings must do what the workloads rely on: α-variants
        // keep the key, cold variants change it.
        let d = digest(&s.source);
        if digest(&s.alpha("a0")) != d || digest(&s.cold("c0").0) == d && !s.free.is_empty() {
            return Err(format!("{}: renaming does not behave as expected", s.name));
        }
        specs.push(s);
    }
    let mut files: Vec<String> = std::fs::read_dir(root.join("examples/lang"))
        .map_err(|e| format!("examples/lang: {e}"))?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|f| f.ends_with(".nu"))
        .collect();
    files.sort();
    let mut rungs = Vec::new();
    for f in files {
        let file = format!("examples/lang/{f}");
        let source = read(root, &file)?;
        let expect = source
            .lines()
            .find_map(|l| l.trim().strip_prefix("// expect:"))
            .map(|v| v.trim().to_owned())
            .ok_or_else(|| format!("{file}: no `// expect:` line"))?;
        rungs.push(Rung {
            file,
            source,
            expect,
        });
    }
    let twins = nuspi_protocols::broken_twins()
        .into_iter()
        .map(|(a, b)| {
            let mut free = free_names(&a.source);
            free.extend(free_names(&b.source));
            free.sort();
            free.dedup();
            Twin {
                left: a.source,
                right: b.source,
                free,
            }
        })
        .collect();
    Ok(Cases {
        specs,
        rungs,
        twins,
    })
}
