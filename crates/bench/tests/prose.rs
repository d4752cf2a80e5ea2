//! The docs quote the committed baselines verbatim. Every
//! `crates/bench/baselines/BENCH_*.json`, rendered with `render_table`,
//! must appear in EXPERIMENTS.md, and the startup table in README.md too,
//! so a regenerated baseline cannot leave stale numbers in the prose. The
//! tables whose cells repeat exactly from run to run (Figure 1's counts,
//! §2.1.2's incremental counts) are rebuilt here and must appear as
//! rendered too.

use std::path::{Path, PathBuf};

use fnc2_bench::{
    figure1_rows, incremental_rows, render_table, BenchTable, FIGURE1_HEADERS, INCREMENTAL_HEADERS,
};

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn docs_quote_the_committed_baselines() {
    let experiments = repo_file("EXPERIMENTS.md");
    let readme = repo_file("README.md");
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("baselines directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no baselines in {}", dir.display());
    for path in &paths {
        let table = BenchTable::load(path).unwrap();
        let text = table.render();
        assert!(
            experiments.contains(&text),
            "EXPERIMENTS.md does not quote {} as rendered:\n{text}",
            path.display()
        );
        if table.name == "startup" {
            assert!(
                readme.contains(&text),
                "README.md does not quote {} as rendered:\n{text}",
                path.display()
            );
        }
    }
}

#[test]
fn docs_quote_figure1_counts() {
    let text = render_table(&FIGURE1_HEADERS, &figure1_rows());
    assert!(
        repo_file("EXPERIMENTS.md").contains(&text),
        "EXPERIMENTS.md does not quote Figure 1's counts as rendered:\n{text}"
    );
}

#[test]
fn docs_quote_incremental_counts() {
    let text = render_table(&INCREMENTAL_HEADERS, &incremental_rows());
    assert!(
        repo_file("EXPERIMENTS.md").contains(&text),
        "EXPERIMENTS.md does not quote §2.1.2's incremental counts as rendered:\n{text}"
    );
}
