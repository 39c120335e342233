//! Every `--bin X`, `--bench X`, `--example X` and `--test X` that the
//! docs, the CI scripts and the verify notes tell a reader to run must
//! name a target that exists.

use std::path::Path;

const DOCS: [&str; 7] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "results/README.md",
    "scripts/ci.sh",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
];

/// Where the target a `flag` names may live (`{}` is the name), relative
/// to the repository root or to any crate directory; empty for any other
/// word.
fn patterns(flag: &str) -> &'static [&'static str] {
    match flag {
        "--bin" => &["src/bin/{}.rs", "src/bin/{}/main.rs"],
        "--bench" => &["benches/{}.rs"],
        "--example" => &["examples/{}.rs"],
        "--test" => &["tests/{}.rs"],
        _ => &[],
    }
}

#[test]
fn every_target_the_docs_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut dirs = vec![root.clone()];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        dirs.push(entry.expect("dir entry").path());
    }

    let mut seen = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        let mut words = text.split_whitespace();
        while let Some(word) = words.next() {
            // `--bin=X` or `--bin X`, possibly opening an inline code span.
            let word = word.trim_start_matches(['`', '(']);
            let (flag, inline) = word.split_once('=').unwrap_or((word, ""));
            let patterns = patterns(flag);
            if patterns.is_empty() {
                continue;
            }
            let raw = if inline.is_empty() {
                words.next().unwrap_or("")
            } else {
                inline
            };
            let name: String = raw
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-'))
                .collect();
            if name.is_empty() {
                continue; // a placeholder such as `--bin <name>`
            }
            seen += 1;
            let paths: Vec<String> = patterns.iter().map(|p| p.replace("{}", &name)).collect();
            if !dirs
                .iter()
                .any(|d| paths.iter().any(|p| d.join(p).is_file()))
            {
                missing.push(format!("{doc}: {flag} {name}"));
            }
        }
    }
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
