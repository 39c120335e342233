//! Every `--bin X`, `--bench X`, `--example X` and `--test X` that the
//! docs, the CI scripts and the verify notes tell a reader to run must
//! name a target that exists, and every value they write after `--cc` or
//! `--burst-path` must be one the bins accept.

use std::path::Path;

use iwarp::BurstPath;
use simnet::CcAlgo;

const DOCS: [&str; 7] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "results/README.md",
    "scripts/ci.sh",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
];

fn root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Calls `f(doc, flag, value)` for every `--flag=value` or `--flag value`
/// in the docs whose flag is one of `flags`; a flag may open an inline
/// code span.
fn for_each_flag(flags: &[&str], mut f: impl FnMut(&str, &str, &str)) {
    for doc in DOCS {
        let text =
            std::fs::read_to_string(root().join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        let mut words = text.split_whitespace();
        while let Some(word) = words.next() {
            let word = word.trim_start_matches(['`', '(']);
            let (flag, inline) = word.split_once('=').unwrap_or((word, ""));
            if !flags.contains(&flag) {
                continue;
            }
            let value = if inline.is_empty() {
                words.next().unwrap_or("")
            } else {
                inline
            };
            f(doc, flag, value);
        }
    }
}

/// The leading run of name characters in `s`.
fn name(s: &str) -> String {
    s.chars()
        .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-'))
        .collect()
}

/// Where the target a `flag` names may live (`{}` is the name), relative
/// to the repository root or to any crate directory.
fn patterns(flag: &str) -> &'static [&'static str] {
    match flag {
        "--bin" => &["src/bin/{}.rs", "src/bin/{}/main.rs"],
        "--bench" => &["benches/{}.rs"],
        "--example" => &["examples/{}.rs"],
        "--test" => &["tests/{}.rs"],
        _ => unreachable!("{flag} names no target"),
    }
}

#[test]
fn every_target_the_docs_name_exists() {
    let root = root();
    let mut dirs = vec![root.clone()];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        dirs.push(entry.expect("dir entry").path());
    }

    let mut seen = 0;
    let mut missing = Vec::new();
    for_each_flag(
        &["--bin", "--bench", "--example", "--test"],
        |doc, flag, value| {
            let name = name(value);
            if name.is_empty() {
                return; // a placeholder such as `--bin <name>`
            }
            seen += 1;
            let paths: Vec<String> = patterns(flag)
                .iter()
                .map(|p| p.replace("{}", &name))
                .collect();
            if !dirs
                .iter()
                .any(|d| paths.iter().any(|p| d.join(p).is_file()))
            {
                missing.push(format!("{doc}: {flag} {name}"));
            }
        },
    );
    assert!(
        seen > 20,
        "the scan found only {seen} references; did the docs move?"
    );
    assert!(
        missing.is_empty(),
        "targets named but not present:\n{}",
        missing.join("\n")
    );
}

/// The values a word after a flag spells: each arm of a `{a,b}`
/// alternation, or the word's leading name. A shell variable or a
/// placeholder such as `<algo>` spells none.
fn spelled_values(value: &str) -> Vec<String> {
    let value = value.trim_start_matches(['`', '"', '\'', '[', '(']);
    if value.starts_with('$') {
        return Vec::new();
    }
    let arms = match value.strip_prefix('{') {
        Some(alts) => alts
            .split('}')
            .next()
            .unwrap_or("")
            .split(',')
            .map(name)
            .collect(),
        None => vec![name(value)],
    };
    arms.into_iter().filter(|v| !v.is_empty()).collect()
}

#[test]
fn every_cc_and_burst_path_value_the_docs_name_parses() {
    let mut seen = 0;
    let mut bad = Vec::new();
    for_each_flag(&["--cc", "--burst-path"], |doc, flag, value| {
        let parses: fn(&str) -> bool = if flag == "--cc" {
            |v| CcAlgo::parse(v).is_some()
        } else {
            |v| BurstPath::parse(v).is_some()
        };
        for v in spelled_values(value) {
            seen += 1;
            if !parses(&v) {
                bad.push(format!("{doc}: {flag} {v}"));
            }
        }
    });
    assert!(
        seen >= 3,
        "the scan found only {seen} values; did the docs move?"
    );
    assert!(
        bad.is_empty(),
        "values the bins reject:\n{}",
        bad.join("\n")
    );
}
