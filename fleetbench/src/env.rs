//! The environment block printed with every result: what the figures
//! depend on besides the code under test. Recorded as metadata, never
//! gated.

use std::fs;
use std::path::Path;

/// Render the environment block as one JSON object. `root` is the
/// checkout the benchmark runs from.
pub fn block(root: &Path) -> String {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let var = |k: &str| std::env::var(k).unwrap_or_default();
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let loc: Vec<String> = source_lines(root)
        .into_iter()
        .map(|(krate, n)| format!("{}:{n}", json_str(&krate)))
        .collect();
    format!(
        "{{\"hardware_threads\":{hw},\"nt_threads\":{},\"pool_workers\":{},\"rustflags\":{},\
         \"build_profile\":\"{profile}\",\"git_rev\":{},\"non_test_source_lines\":{{{}}}}}",
        json_str(&var("NT_THREADS")),
        nt_tensor::pool::num_threads(),
        json_str(&var("RUSTFLAGS")),
        json_str(&git_rev(root).unwrap_or_else(|| "unknown".into())),
        loc.join(",")
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit checked out at `root`, read from `.git` without running
/// git (`None` outside a repository).
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else { return Some(head.to_string()) };
    if let Ok(rev) = fs::read_to_string(git.join(name)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| l.strip_suffix(name).map(|rev| rev.trim().to_string()))
}

/// Non-test source lines per crate: non-blank, non-comment lines of every
/// `.rs` file under each crate's `src/` (the root package counts as
/// `netllm-repro`), stopping each file at its first `#[cfg(test)]`.
pub fn source_lines(root: &Path) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut dirs = vec![("netllm-repro".to_string(), root.join("src"))];
    if let Ok(rd) = fs::read_dir(root.join("crates")) {
        let mut crates: Vec<_> = rd.flatten().map(|e| e.path()).collect();
        crates.sort();
        for c in crates {
            let name = c.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
            dirs.push((name, c.join("src")));
        }
    }
    for (name, dir) in dirs {
        if dir.is_dir() {
            out.push((name, count_dir(&dir)));
        }
    }
    out
}

fn count_dir(dir: &Path) -> usize {
    let Ok(rd) = fs::read_dir(dir) else { return 0 };
    rd.flatten()
        .map(|e| e.path())
        .map(|p| {
            if p.is_dir() {
                count_dir(&p)
            } else if p.extension().is_some_and(|x| x == "rs") {
                fs::read_to_string(&p).map(|s| count_source(&s)).unwrap_or(0)
            } else {
                0
            }
        })
        .sum()
}

/// Non-blank, non-comment lines before the first `#[cfg(test)]`.
fn count_source(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_count_skips_blanks_comments_and_the_test_tail() {
        let src = "//! doc\nfn a() {}\n\n    // note\nfn b() {}\n#[cfg(test)]\nmod tests {}\n";
        assert_eq!(count_source(src), 2);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
