//! The five workloads, their legs, and how one leg execution is run and
//! checked.
//!
//! Everything here drives the system through `workloads::runner` /
//! `workloads::restart` only; the crates see nothing but the generated
//! [`RunConfig`].

use crate::metrics::LEGS;
use mpiio::{Datatype, PhaseProfile};
use simfs::{FsConfig, FsStats, ScrubReport};
use simmpi::Info;
use simtrace::TraceSink;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use workloads::btio::BtIo;
use workloads::flashio::FlashIo;
use workloads::restart::{run_restart, Restart};
use workloads::runner::{run_workload, DataMode, IoMode, RunConfig};
use workloads::tileio::TileIo;
use workloads::Workload;

/// `FsConfig::jaguar()`'s seed: the default `--seed`, so default numbers
/// are the ones the committed figures use.
pub const DEFAULT_SEED: u64 = 0x0C0_FFEE;

/// Workload size: the benchmark's own, or the 8–16 rank miniatures the
/// self-tests run (same legs, same code paths, milliseconds per leg).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured shapes.
    Full,
    /// Self-test shapes; results are stamped `partial`.
    Mini,
}

/// The access pattern a workload generates.
#[derive(Debug, Clone)]
pub enum Shape {
    /// MPI-Tile-IO, one collective call.
    Tile(TileIo),
    /// NAS BT-IO, one collective append per step.
    Bt(BtIo),
    /// Flash-IO checkpoint, one collective call per variable.
    Flash(FlashIo),
    /// Checkpoint, reopen, hole-dense collective read.
    Restart(Restart),
}

/// One way of running the workload's I/O.
#[derive(Debug, Clone)]
pub struct Leg {
    /// `base`, `pc` or `var`.
    pub name: &'static str,
    /// I/O path.
    pub mode: IoMode,
    /// Explicit MPI-IO hints (beyond what the mode implies).
    pub hints: &'static [(&'static str, &'static str)],
    /// End-to-end integrity plus an at-rest scrub after the run.
    pub integrity: bool,
    /// What the leg stands for, printed with the workload's results.
    pub what: String,
}

/// A benchmark workload: a shape and its three legs.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    /// Access pattern.
    pub shape: Shape,
    /// Synthetic (byte counts only) or real, verified bytes.
    pub data: DataMode,
    /// Also run a collective read-back pass.
    pub read_back: bool,
    /// `base`, `pc`, `var`.
    pub legs: [Leg; 3],
    /// File-system seeds a run cycles its iterations through. One seed's
    /// straggler draws move a leg's simulated MB/s by 5–25 %, so the
    /// simulated end-to-end metrics are bytes over virtual seconds summed
    /// across this many seeds (member 0 is the run's seed itself); a run
    /// makes at least this many iterations, so the cheaper the iteration
    /// and the wider the spread, the larger the panel.
    pub panel: usize,
    /// Run under this seed whatever `--seed` says (see
    /// [`Spec::effective_seed`]).
    pub fixed_seed: Option<u64>,
    /// The paper reports this shape (512-process MPI-Tile-IO), so the
    /// `paper_*` layer metrics are an accuracy statement here.
    pub paper_reference: bool,
}

fn leg(
    name: &'static str,
    mode: IoMode,
    hints: &'static [(&'static str, &'static str)],
    integrity: bool,
    what: &str,
) -> Leg {
    Leg {
        name,
        mode,
        hints,
        integrity,
        what: what.to_string(),
    }
}

fn base() -> Leg {
    leg(
        LEGS[0],
        IoMode::Collective,
        &[],
        false,
        "extended two-phase over the whole communicator (the Cray/OPAL stand-in)",
    )
}

fn pc(groups: usize) -> Leg {
    leg(
        LEGS[1],
        IoMode::Parcoll { groups },
        &[],
        false,
        &format!("ParColl, {groups} subgroups"),
    )
}

/// The workloads, in report order.
pub fn specs(scale: Scale) -> Vec<Spec> {
    let full = scale == Scale::Full;
    let pick = |f: usize, m: usize| if full { f } else { m };
    let tile = |grid: (usize, usize), tile_x, tile_y| TileIo {
        ntx: grid.0,
        nty: grid.1,
        tile_x,
        tile_y,
        elem: 64,
    };
    vec![
        Spec {
            name: "tile_write_512",
            why: "Paper headline scale (Fig 1/7/9): base is sync-bound in virtual time, pc I/O-bound; host time is 512 fibers of rank code, where simnet/simmpi do most of the work.",
            shape: Shape::Tile(if full { TileIo::paper(512) } else { tile(TileIo::near_square_grid(16), 64, 48) }),
            data: DataMode::Synthetic,
            read_back: false,
            panel: 4,
            fixed_seed: None,
            paper_reference: true,
            legs: [
                base(),
                pc(pick(64, 4)),
                leg(
                    LEGS[2],
                    IoMode::Collective,
                    &[("cb_nodes", "64")],
                    false,
                    "base with cb_nodes=64: one aggregator per stripe target instead of one per node, so the same bytes take several times the rounds",
                ),
            ],
        },
        Spec {
            name: "btio_c_64",
            why: "Pattern (c): thousands of small pieces per rank. Base pays twophase pack/unpack and mailboxes (per-rank offset/length metadata), pc takes the parcoll intermediate view; 40 calls hit per-call caches.",
            shape: Shape::Bt(if full { BtIo::with_grid(64, 162, 40) } else { BtIo::with_grid(16, 24, 4) }),
            data: DataMode::Synthetic,
            read_back: false,
            panel: 6,
            fixed_seed: None,
            paper_reference: false,
            legs: [
                base(),
                pc(pick(8, 4)),
                leg(
                    LEGS[2],
                    IoMode::Parcoll { groups: pick(8, 4) },
                    &[("cb_buffer_size", "1048576")],
                    false,
                    "pc with a 1 MiB collective buffer: three times the rounds (120 for 40) on the intermediate-view path",
                ),
            ],
        },
        Spec {
            name: "tile_restart_256",
            why: "The mpiio/parcoll/simfs layers in the read direction: hole-dense read_at_all through a narrower view, sieve vs list I/O, and read-side memory (peak RSS is about the bytes read).",
            shape: Shape::Restart(Restart::with_den(
                if full { tile(TileIo::tall_grid(256), 512, 384) } else { tile(TileIo::near_square_grid(16), 64, 48) },
                4,
            )),
            data: DataMode::Synthetic,
            read_back: false,
            panel: 8,
            fixed_seed: None,
            paper_reference: false,
            legs: [
                base(),
                pc(pick(32, 4)),
                leg(
                    LEGS[2],
                    IoMode::Parcoll { groups: pick(32, 4) },
                    &[("cb_ds_read", "enable")],
                    false,
                    "pc plus collective-read data sieving / list I/O",
                ),
            ],
        },
        Spec {
            name: "flash_ckpt_128",
            why: "I/O-dominated where tile_write_512 is sync-dominated: many calls of large serial segments load simfs OST queues and the scheduler; var bypasses collectives, exchange and ParColl entirely.",
            shape: Shape::Flash(if full {
                FlashIo::checkpoint(128)
            } else {
                FlashIo { blocks_per_proc: 4, nb: 8, ..FlashIo::checkpoint(8) }
            }),
            data: DataMode::Synthetic,
            read_back: false,
            panel: 4,
            fixed_seed: None,
            paper_reference: false,
            legs: [
                base(),
                pc(pick(8, 2)),
                leg(LEGS[2], IoMode::Independent, &[], false, "independent I/O, the paper's \"Cray w/o Coll\""),
            ],
        },
        Spec {
            name: "tile_verify_64",
            why: "The only workload with real bytes: IoBuffer copies, pack/unpack memcpy, simfs storage pages, checksums and scrubbing do nothing on synthetic data. Its byte-compared read-back is the output check.",
            shape: Shape::Tile(if full {
                tile(TileIo::near_square_grid(64), 256, 192)
            } else {
                tile(TileIo::near_square_grid(8), 32, 24)
            }),
            data: DataMode::Verify,
            read_back: true,
            // About 50 OST requests per pass: whether one of them draws the
            // 20x straggler decides the pass, so across seeds the simulated
            // MB/s spread (IQR) is half the median and no bound could gate
            // it. The workload is here for host cost and byte correctness,
            // so it always runs the seed the committed figures use.
            panel: 4,
            fixed_seed: Some(DEFAULT_SEED),
            paper_reference: false,
            legs: [
                base(),
                pc(pick(8, 2)),
                leg(
                    LEGS[2],
                    IoMode::Parcoll { groups: pick(8, 2) },
                    &[],
                    true,
                    "pc with checksummed pieces, verified pages and an at-rest scrub",
                ),
            ],
        },
    ]
}

/// The spec named `name`, if any.
pub fn find(name: &str, scale: Scale) -> Option<Spec> {
    specs(scale).into_iter().find(|s| s.name == name)
}

impl Spec {
    /// Rank count.
    pub fn nprocs(&self) -> usize {
        match &self.shape {
            Shape::Tile(w) => w.nprocs(),
            Shape::Bt(w) => w.nprocs(),
            Shape::Flash(w) => w.nprocs(),
            Shape::Restart(w) => w.tile.nprocs(),
        }
    }

    /// The seed this workload runs under when the run's seed is `seed`.
    pub fn effective_seed(&self, seed: u64) -> u64 {
        self.fixed_seed.unwrap_or(seed)
    }

    /// Every rank's file view and first transfer `(view offset, bytes)` —
    /// the inputs the layer probes time the crates' functions on. For the
    /// restart workload these are the narrow *read* views.
    pub fn access(&self) -> Vec<((u64, Datatype), (u64, u64))> {
        fn of(w: &dyn Workload) -> Vec<((u64, Datatype), (u64, u64))> {
            (0..w.nprocs()).map(|r| (w.view(r), w.call(r, 0))).collect()
        }
        match &self.shape {
            Shape::Tile(w) => of(w),
            Shape::Bt(w) => of(w),
            Shape::Flash(w) => of(w),
            Shape::Restart(w) => (0..w.tile.nprocs())
                .map(|r| (w.read_view(r), (0, w.read_bytes())))
                .collect(),
        }
    }

    /// The configuration handed to the runner for `leg`. `seed` is the
    /// only thing the benchmark's `--seed` reaches: the file system's
    /// jitter and straggler draws.
    pub fn run_config(&self, leg: &Leg, seed: u64, trace: TraceSink) -> RunConfig {
        let mut info = Info::new();
        for (k, v) in leg.hints {
            info.set(k, v);
        }
        RunConfig {
            data: self.data,
            info,
            fs: FsConfig {
                seed,
                ..FsConfig::jaguar()
            },
            read_back: self.read_back,
            trace,
            integrity: leg.integrity,
            scrub: leg.integrity,
            ..RunConfig::paper(leg.mode)
        }
    }

    /// Run one leg under `cfg`. A panic inside the run (a read-back
    /// mismatch, an unrepairable page) is an operation failure, not a
    /// benchmark crash.
    pub fn run(&self, cfg: RunConfig) -> Result<LegSim, String> {
        let shape = self.shape.clone();
        catch_unwind(AssertUnwindSafe(move || match shape {
            Shape::Tile(w) => LegSim::of_run(&run_workload(w, cfg)),
            Shape::Bt(w) => LegSim::of_run(&run_workload(w, cfg)),
            Shape::Flash(w) => LegSim::of_run(&run_workload(w, cfg)),
            Shape::Restart(w) => {
                let r = run_restart(w, cfg);
                LegSim::new(
                    r.write_seconds,
                    r.read_seconds,
                    r.write_bytes,
                    r.read_bytes,
                    &r.profile_max,
                    &r.fs_stats,
                    None,
                )
            }
        }))
        .map_err(|payload| {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            msg.lines().next().unwrap_or("").to_string()
        })
    }
}

/// Everything one leg execution produced on the simulated clock. All of
/// it must repeat bit for bit whenever the same leg runs again with the
/// same seed — across iterations, with tracing on or off, and in a fresh
/// process.
#[derive(Debug, Clone)]
pub struct LegSim {
    /// Virtual seconds of the write pass (barrier to barrier).
    pub write_s: f64,
    /// Virtual seconds of the read pass; 0 when the leg has none.
    pub read_s: f64,
    /// Bytes the write pass moved.
    pub bytes_written: u64,
    /// Bytes the read pass returned; 0 when the leg has none.
    pub bytes_read: u64,
    /// Phase seconds (rank average; slowest rank for the restart
    /// workload, whose result carries no average).
    pub sync_s: f64,
    /// Point-to-point exchange seconds.
    pub p2p_s: f64,
    /// File I/O seconds.
    pub io_s: f64,
    /// Local (pack/unpack, view processing) seconds.
    pub local_s: f64,
    /// Two-phase rounds.
    pub rounds: u64,
    /// OST requests served.
    pub ost_requests: u64,
    /// Bytes the OSTs moved.
    pub ost_bytes: u64,
    /// Busy seconds of the busiest OST.
    pub max_ost_busy_s: f64,
    /// Busiest OST over mean OST busy time.
    pub imbalance: f64,
    /// Resident bytes of the file images at the end of the run.
    pub image_resident_bytes: u64,
    /// Extents the integrity layer repaired.
    pub integrity_repaired: u64,
    /// The at-rest scrub found nothing (true when no scrub ran).
    pub scrub_clean: bool,
}

impl LegSim {
    fn new(
        write_s: f64,
        read_s: f64,
        bytes_written: u64,
        bytes_read: u64,
        profile: &PhaseProfile,
        fs: &FsStats,
        scrub: Option<&ScrubReport>,
    ) -> Self {
        LegSim {
            write_s,
            read_s,
            bytes_written,
            bytes_read,
            sync_s: profile.sync.as_secs(),
            p2p_s: profile.p2p.as_secs(),
            io_s: profile.io.as_secs(),
            local_s: profile.local.as_secs(),
            rounds: profile.rounds,
            ost_requests: fs.total_requests,
            ost_bytes: fs.total_bytes,
            max_ost_busy_s: fs.max_ost_busy.as_secs(),
            imbalance: fs.imbalance(),
            image_resident_bytes: fs.image_resident_bytes,
            integrity_repaired: fs.integrity_repaired,
            scrub_clean: scrub.is_none_or(ScrubReport::is_clean),
        }
    }

    fn of_run(r: &workloads::runner::RunResult) -> Self {
        let read_s = r.read_seconds.unwrap_or(0.0);
        let bytes_read = if r.read_seconds.is_some() {
            r.total_bytes
        } else {
            0
        };
        Self::new(
            r.write_seconds,
            read_s,
            r.total_bytes,
            bytes_read,
            &r.profile_avg,
            &r.fs_stats,
            r.scrub.as_ref(),
        )
    }

    /// Aggregate bandwidth of the leg, decimal MB/s: bytes written plus
    /// bytes read over write plus read seconds — for a write-only leg
    /// exactly the paper's write bandwidth.
    pub fn mbps(&self) -> f64 {
        (self.bytes_written + self.bytes_read) as f64 / (self.write_s + self.read_s) / 1e6
    }

    /// Write-pass bandwidth, MB/s.
    pub fn write_mbps(&self) -> f64 {
        self.bytes_written as f64 / self.write_s / 1e6
    }

    /// Read-pass bandwidth, MB/s; 0 when the leg has no read pass.
    pub fn read_mbps(&self) -> f64 {
        if self.read_s > 0.0 {
            self.bytes_read as f64 / self.read_s / 1e6
        } else {
            0.0
        }
    }

    /// Synchronisation share of the phase profile, percent.
    pub fn sync_share_pct(&self) -> f64 {
        100.0 * self.sync_s / (self.sync_s + self.p2p_s + self.io_s + self.local_s)
    }

    /// The bit patterns of every field.
    fn words(&self) -> [u64; 16] {
        [
            self.write_s.to_bits(),
            self.read_s.to_bits(),
            self.bytes_written,
            self.bytes_read,
            self.sync_s.to_bits(),
            self.p2p_s.to_bits(),
            self.io_s.to_bits(),
            self.local_s.to_bits(),
            self.rounds,
            self.ost_requests,
            self.ost_bytes,
            self.max_ost_busy_s.to_bits(),
            self.imbalance.to_bits(),
            self.image_resident_bytes,
            self.integrity_repaired,
            u64::from(self.scrub_clean),
        ]
    }

    /// FNV-1a over the bit patterns of every field: how bit-identity is
    /// checked across processes.
    pub fn digest(&self) -> u64 {
        let bytes: Vec<u8> = self.words().iter().flat_map(|w| w.to_le_bytes()).collect();
        simnet::fnv1a(&bytes)
    }

    /// Bit-for-bit equality (`==` on floats would let `0.0 == -0.0` pass).
    pub fn same_bits(&self, other: &LegSim) -> bool {
        self.words() == other.words()
    }
}

/// Counts operations (one op = one leg execution) and checks each
/// against the first execution of the same leg under the same
/// file-system seed (panel member) in this process.
#[derive(Debug, Default)]
pub struct Ledger {
    reference: BTreeMap<(&'static str, usize), LegSim>,
    /// Leg executions attempted.
    pub attempted: u64,
    /// Leg executions that failed a check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Record the outcome of one execution of `leg` under panel member
    /// `member` (`context` says which: set-up, timed, traced). Returns
    /// whether the operation passed every check.
    pub fn record(
        &mut self,
        leg: &'static str,
        member: usize,
        context: &str,
        outcome: Result<LegSim, String>,
    ) -> bool {
        self.attempted += 1;
        let failure = match outcome {
            Err(panic) => Some(format!("run failed: {panic}")),
            Ok(sim) if !sim.scrub_clean => Some("at-rest scrub found damaged pages".to_string()),
            Ok(sim) => match self.reference.get(&(leg, member)) {
                Some(first) if !first.same_bits(&sim) => Some(format!(
                    "simulated result differs from the leg's first execution under this seed: {first:?} vs {sim:?}"
                )),
                Some(_) => None,
                None => {
                    self.reference.insert((leg, member), sim);
                    None
                }
            },
        };
        if let Some(why) = &failure {
            self.failed += 1;
            self.failures
                .push(format!("{leg} ({context}, panel member {member}): {why}"));
        }
        failure.is_none()
    }

    /// The first (reference) result of `leg` under panel member `member`,
    /// if one succeeded.
    pub fn reference(&self, leg: &'static str, member: usize) -> Option<&LegSim> {
        self.reference.get(&(leg, member))
    }
}
