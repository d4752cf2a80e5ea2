//! Table 4 — source files in the FNC-2 system.
//!
//! The paper's modularity argument: the system's own sources split into
//! many small files ("if all this code was gathered in a single file, or
//! even one file per subsystem, it would be impossible to manage"). The
//! substitution organizes this reproduction's OLGA corpus — the embedded
//! AG sources plus generated module files — into subsystems and runs the
//! `mkfnc2` statistics over them, including the build order derived from
//! the import graph.
//!
//! Run with `cargo run --release --bin table4 -p fnc2-bench`.

use fnc2::tools::{analyze_project, render_stats, SourceFile};
use fnc2_corpus::{module_source, sized_ag_source, MINIPASCAL_OLGA, TABLE3_MODULES};

fn main() {
    println!("Table 4: source files in the reproduction's OLGA corpus\n");
    let mut files = Vec::new();
    // The mini-Pascal application: its helper module + AG, split like the
    // paper's per-subsystem organization.
    files.push(SourceFile {
        name: "minipascal.olga".into(),
        subsystem: "minipascal".into(),
        text: MINIPASCAL_OLGA.to_string(),
    });
    // Generated module pairs play the role of the system's own modules.
    for (name, lines) in TABLE3_MODULES {
        let sub = match &name[..1] {
            "C" => "decl-modules",
            _ => "defn-modules",
        };
        files.push(SourceFile {
            name: format!("{}.olga", name.to_lowercase()),
            subsystem: sub.into(),
            text: module_source(name, lines),
        });
    }
    // Sized AG sources as the "ag" subsystem.
    for (name, lines) in [("tc", 900), ("trans", 700), ("wd", 400)] {
        files.push(SourceFile {
            name: format!("{name}.olga"),
            subsystem: "ags".into(),
            text: sized_ag_source(name, lines),
        });
    }

    let project = analyze_project(&files).expect("corpus project is consistent");
    println!("{}", render_stats(&project.stats));
    let headers = ["subsystem", "files", "min", "avg", "max", "total"];
    let rows: Vec<Vec<String>> = project
        .stats
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                s.files.to_string(),
                s.min_lines.to_string(),
                s.avg_lines().to_string(),
                s.max_lines.to_string(),
                s.total_lines.to_string(),
            ]
        })
        .collect();
    fnc2_bench::maybe_emit_json("table4", &headers, &rows, &[]);
    println!(
        "{} units; build order: {}",
        project.units.len(),
        project.build_order.join(" -> ")
    );
    println!("\nPaper shape: many files, small average size, one much larger definition");
    println!("module (F2 = 3188 lines), totals in the tens of thousands of lines for the");
    println!("full system (29767 in the paper).");
}
