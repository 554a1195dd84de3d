//! Runs every row of the reproduction table (`bench::rows`) on one thread
//! and prints the results as one JSON document, one record per line. The
//! repository checks the output in as `REPRO.json`:
//!
//! ```text
//! cargo run --release -p freesketch-bench --bin repro > REPRO.json
//! ```
//!
//! Each row's wall time goes to stderr.

use std::io::{self, BufWriter, Write};

fn main() -> io::Result<()> {
    let mut out = BufWriter::new(io::stdout().lock());
    bench::write_repro(&bench::rows(), 1, &mut out)?;
    out.flush()
}
