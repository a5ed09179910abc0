//! Read sweep — the fig6-style read counterpart (DESIGN.md §15):
//! restart `read_at_all` bandwidth of the hole-dense checkpoint-restart
//! pattern (full tile image written, quarter-width columns read back, 75 %
//! holes per covering extent) as the ParColl subgroup count varies,
//! baseline vs ParColl-N, plus a hole-geometry panel whose gaps fall on
//! both sides of the file system's break-even gap. A read aggregator
//! reads through a hole only when that is cheaper than one more list-I/O
//! extent, and subgroups localize the read exchange exactly as they do
//! the write.

use bench::figures::restart_read_sweep;
use bench::{emit_json, print_table, Scale};

fn main() {
    let scale = Scale::from_args();
    let (procs, groups): (usize, &[usize]) = match scale {
        Scale::Paper => (256, &[1, 2, 4, 8, 16, 32]),
        Scale::Quick => (16, &[1, 2, 4]),
    };
    let rows = restart_read_sweep(procs, groups, scale == Scale::Paper);
    print_table("Read sweep: restart read_at_all bandwidth", "groups", &rows);
    emit_json("read_sweep", &rows);
}
