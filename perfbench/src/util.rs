//! Small shared helpers: a seeded RNG, a linear JSON field scanner for
//! response lines, quantiles, and wall-clock formatting.

use std::hash::Hasher as _;
use std::time::Duration;

/// SplitMix64: the request streams are a pure function of the seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for sub-stream `k` of `seed` (one per pass, per lane).
    pub fn derive(seed: u64, k: u64) -> Rng {
        let mut r = Rng(seed ^ k.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// A 128-bit digest of a sequence of lines, printed as hex.
pub fn lines_digest<'a>(lines: impl IntoIterator<Item = &'a str>) -> String {
    let mut h = nuspi_syntax::StableHasher128::new();
    for line in lines {
        h.write(line.as_bytes());
    }
    format!("{:032x}", h.finish128().0)
}

/// JSON string escaping for request lines.
pub fn esc(s: &str) -> String {
    nuspi_engine::jsonio::escape(s)
}

/// The raw text of the first top-level-looking `"key":` value in a
/// response line: a string's decoded contents, or a scalar's literal.
/// Linear in the line length, so checking large responses stays cheap.
pub fn field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    if let Some(body) = rest.strip_prefix('"') {
        let mut out = String::new();
        let mut chars = body.chars();
        while let Some(c) = chars.next() {
            match c {
                '"' => return Some(out),
                '\\' => match chars.next()? {
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let hex: String = chars.by_ref().take(4).collect();
                        let cp = u32::from_str_radix(&hex, 16).ok()?;
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                    }
                    other => out.push(other),
                },
                c => out.push(c),
            }
        }
        None
    } else {
        let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
        Some(rest[..end].trim().to_owned())
    }
}

/// A numeric field of a response line (`0` when absent).
pub fn num(line: &str, key: &str) -> f64 {
    field(line, key)
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// The `"{section}":{...}` object of a stats line, as its own text.
pub fn section<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("\"{name}\":{{");
    let at = line.find(&pat)? + pat.len() - 1;
    let end = line[at..].find('}')? + at + 1;
    Some(&line[at..end])
}

/// Every value of `"code":"…"` in a response line, sorted.
pub fn codes(line: &str, sep: &str) -> Vec<String> {
    let pat = format!("\"code\":{sep}\"");
    let mut out: Vec<String> = line
        .match_indices(&pat)
        .filter_map(|(i, _)| {
            let rest = &line[i + pat.len()..];
            rest.find('"').map(|end| rest[..end].to_owned())
        })
        .collect();
    out.sort();
    out
}

/// Whether a response line reports `"status":"ok"`.
pub fn is_ok(line: &str) -> bool {
    line.contains("\"status\":\"ok\"")
}

/// Quantile `q` in `[0, 1]` of `v` (sorted in place), linear between
/// order statistics.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
