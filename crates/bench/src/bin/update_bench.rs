//! Update-throughput experiment on the frozen 8K-user baseline shape:
//! sequential vs batched (see `peb_bench::updates`).

use peb_bench::{report, updates};

fn main() {
    report::header("Updates", "update throughput: sequential vs batched");
    updates::print_table(&updates::measure_updates());
}
