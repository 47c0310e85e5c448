//! E8 — runs all sixteen reference capabilities on a common simulated
//! trace with labelled faults, and prints what each produced.

use oda_bench::e8_cells;

fn main() {
    println!("E8 — the sixteen cells, executable (4 h small site, 3 injected faults)\n");
    let dc = e8_cells::build_site(4.0, 99);
    println!(
        "site after run: PUE {:.3}, {} jobs completed, {} faults scheduled\n",
        dc.snapshot().pue,
        dc.snapshot().completed,
        dc.faults().schedule().len()
    );
    for result in e8_cells::run_all(&dc) {
        let cells: Vec<String> = result.cells.iter().map(|c| c.to_string()).collect();
        println!("■ {}  [{}]", result.name, cells.join(", "));
        for (label, description) in &result.artifacts {
            println!("    {label:<12} {description}");
        }
        println!();
    }
}
