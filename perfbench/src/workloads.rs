//! The workloads. Each draws its inputs from the seed once, at
//! set-up; every rep then makes the same calls in the same order, so every
//! rep's simulated outcome is identical.

use crate::checks::Obs;
use crate::spans::Spans;
use hulkv::{HulkV, Recorder, Recording, SocConfig, SocError};
use hulkv_kernels::dnn_exec::run_tiled_conv;
use hulkv_kernels::suite::{record_fig6_kernel, ClusterRun, Kernel, KernelParams};
use hulkv_sim::{Fnv64, SplitMix64};

/// Layer names: the crates a call mainly drives.
pub mod layer {
    /// The benchmark's own code between calls (a rep's unattributed time).
    pub const BENCH: &str = "bench";
    /// SoC assembly, offload runtime and flight recorder.
    pub const SOC: &str = "hulkv";
    /// CVA6 host with its L1s, running the ISS against main memory.
    pub const HOST: &str = "hulkv-host";
    /// LLC, HyperRAM, DDR and the DMA engines.
    pub const MEM: &str = "hulkv-mem";
    /// The PMCA quantum engine running teams of ISS cores.
    pub const CLUSTER: &str = "hulkv-cluster";
    /// Snapshots, the JSON codec and state digests.
    pub const SIM: &str = "hulkv-sim";
}

/// Span names: the public calls the benchmark times.
pub mod call {
    /// One rep, the root of its spans.
    pub const REP: &str = "rep";
    /// `HulkV::new`.
    pub const NEW: &str = "HulkV::new";
    /// `Kernel::run_on_host`.
    pub const RUN_ON_HOST: &str = "Kernel::run_on_host";
    /// `Kernel::run_on_cluster` on a short kernel.
    pub const OFFLOAD_SHORT: &str = "Kernel::run_on_cluster[short]";
    /// `Kernel::run_on_cluster` on a matmul kernel.
    pub const OFFLOAD_MATMUL: &str = "Kernel::run_on_cluster[matmul]";
    /// `Kernel::run_on_cluster` on a short kernel, default (multi-worker)
    /// team executor.
    pub const OFFLOAD_POOL: &str = "Kernel::run_on_cluster[pool]";
    /// `Kernel::run_on_cluster` on the FIR kernel.
    pub const OFFLOAD_FIR: &str = "Kernel::run_on_cluster[fir]";
    /// `dnn_exec::run_tiled_conv`.
    pub const TILED_CONV: &str = "dnn_exec::run_tiled_conv";
    /// `Recorder::new` + `record_fig6_kernel` + `Recorder::finish`.
    pub const RECORD: &str = "record_fig6_kernel";
    /// `Recording::to_bytes`.
    pub const SAVE: &str = "Recording::to_bytes";
    /// `Recording::from_bytes`.
    pub const LOAD: &str = "Recording::from_bytes";
    /// `Recording::restore_checkpoint`.
    pub const RESTORE: &str = "Recording::restore_checkpoint";
    /// `HulkV::state_digest`.
    pub const DIGEST: &str = "HulkV::state_digest";
    /// `Recording::resume_from`.
    pub const RESUME: &str = "Recording::resume_from";
}

/// PMCA cores per team: the full cluster, as in the paper's figures.
const CORES: usize = 8;

/// A workload the benchmark can repeat.
pub trait Workload {
    /// One rep. Records the outcome of every call in `obs`.
    fn rep(&mut self, spans: &mut Spans, obs: &mut Vec<Obs>);
    /// Work after the rep's timing has stopped: checks that need more
    /// simulator calls (state digests of the rep's SoCs). Returns the
    /// guest instructions (host plus cluster) the rep retired.
    fn settle(&mut self, obs: &mut Vec<Obs>) -> u64;
    /// Exact simulated counts of the last rep, by metric name.
    fn counts(&self) -> Vec<(&'static str, f64)>;
    /// The inputs drawn from the seed, in one line.
    fn describe(&self) -> String;
}

/// The workload names, as given to `--workload`.
pub const NAMES: [&str; 2] = ["fig6-offload", "replay"];

/// Draws the inputs of workload `name` from `seed` and runs its set-up
/// probe, if any; `None` for an unknown name.
pub fn build(
    name: &str,
    seed: u64,
    spans: &mut Spans,
    obs: &mut Vec<Obs>,
) -> Option<Box<dyn Workload>> {
    let mut rng = SplitMix64::new(seed);
    Some(match name {
        "fig6-offload" => Box::new(Fig6Offload::new(&mut rng, spans, obs)),
        "replay" => Box::new(Replay::new(&mut rng)),
        _ => return None,
    })
}

fn shuffle<T>(rng: &mut SplitMix64, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// A value in `lo..=hi` that is a multiple of `step`.
fn draw(rng: &mut SplitMix64, lo: usize, hi: usize, step: usize) -> usize {
    lo + step * rng.next_below(((hi - lo) / step + 1) as u64) as usize
}

/// One of `choices`.
fn pick<T: Copy>(rng: &mut SplitMix64, choices: &[T]) -> T {
    choices[rng.next_below(choices.len() as u64) as usize]
}

/// Host plus cluster instructions retired by a SoC since it was built.
fn instret(soc: &HulkV) -> u64 {
    soc.host().core().instret() + soc.cluster().stats().get("instret")
}

fn llc_counts(soc: &HulkV) -> (u64, u64) {
    let s = soc.llc_stats();
    (s.get("cacheable"), s.get("bypassed"))
}

// ------------------------------------------------------------ fig6-offload

/// Warm offloads per kernel and rep.
const OFFLOADS_PER_KERNEL: usize = 40;

/// A stream of short teams: per Figure-6 kernel a fresh SoC (see
/// [`offload_soc`]), one `run_on_host` baseline and [`OFFLOADS_PER_KERNEL`] `run_on_cluster`
/// offloads; the rep ends with a DORY-tiled convolution layer whose DMA
/// tiles move between main memory and the TCDM in both directions.
pub struct Fig6Offload {
    params: KernelParams,
    order: [Kernel; 9],
    /// Tiled layer: input height, width and output rows per tile.
    tile: (usize, usize, usize),
    socs: Vec<HulkV>,
    team_cycles: u64,
    overhead_cycles: u64,
    llc: (u64, u64),
}

fn kernel_index(k: Kernel) -> u64 {
    Kernel::ALL
        .iter()
        .position(|&x| x == k)
        .expect("a Figure-6 kernel") as u64
}

fn offload_call(k: Kernel) -> &'static str {
    match k {
        Kernel::MatMulI8 | Kernel::MatMulI32 | Kernel::MatMulF16 => call::OFFLOAD_MATMUL,
        Kernel::FirI16 => call::OFFLOAD_FIR,
        _ => call::OFFLOAD_SHORT,
    }
}

impl Fig6Offload {
    fn new(rng: &mut SplitMix64, spans: &mut Spans, obs: &mut Vec<Obs>) -> Self {
        // Small problems, so the fixed cost of an offload dominates. The
        // seed picks shapes of (nearly) equal work and moves 1-D sizes by
        // at most 3 %, so every seed does the same work to within ~1 %.
        let (conv_h, conv_w) = pick(rng, &[(17, 19), (18, 18), (19, 17)]);
        let (fir_n, fir_taps) = pick(rng, &[(224, 18), (256, 16), (288, 14)]);
        let (pool_h, pool_w) = pick(rng, &[(28, 36), (32, 32), (36, 28)]);
        let params = KernelParams {
            matmul_n: 16,
            f16_n: 16,
            conv_h,
            conv_w,
            fir_n,
            fir_taps,
            relu_n: draw(rng, 1984, 2112, 32),
            pool_h,
            pool_w,
            vec_n: draw(rng, 496, 528, 16),
        };
        let mut order = Kernel::ALL;
        shuffle(rng, &mut order);
        let (h, w) = pick(rng, &[(32, 36), (34, 34), (36, 32)]);
        let tile = (h, w, draw(rng, 6, 10, 2));
        pool_probe(&params, spans, obs);
        Fig6Offload {
            params,
            order,
            tile,
            socs: Vec::new(),
            team_cycles: 0,
            overhead_cycles: 0,
            llc: (0, 0),
        }
    }
}

/// The SoC the fig6-offload reps use: the default one with the serial
/// team executor. With the default two workers on a two-CPU host, every
/// team spawns threads and waits at each sync round for the slower CPU,
/// which turns a neighbour's load into a 2-3x swing of the rep time.
fn offload_soc() -> SocConfig {
    let mut cfg = SocConfig::default();
    cfg.cluster.workers = 1;
    cfg
}

/// Short kernels offloaded on the default (multi-worker) SoC at set-up,
/// and how often each.
const POOL_PROBE: [Kernel; 5] = [
    Kernel::ReluI8,
    Kernel::MaxPoolI8,
    Kernel::DotpF32,
    Kernel::AxpyF32,
    Kernel::Conv2dI8,
];
const POOL_PROBE_REPEAT: usize = 2;

/// Offloads the [`POOL_PROBE`] kernels on a default SoC, whose cluster
/// runs teams on as many workers as the host has CPUs. Their outcomes are
/// checked against the serial reps' (teams are worker-invariant), and
/// their spans give the per-offload cost of the default executor.
fn pool_probe(p: &KernelParams, spans: &mut Spans, obs: &mut Vec<Obs>) {
    let Ok(mut soc) = spans.time(call::NEW, layer::SOC, || HulkV::new(SocConfig::default())) else {
        obs.push(Obs::error(("soc.new", 10)));
        return;
    };
    for k in POOL_PROBE {
        let ki = kernel_index(k);
        for _ in 0..POOL_PROBE_REPEAT {
            match spans.time(call::OFFLOAD_POOL, layer::CLUSTER, || {
                k.run_on_cluster(&mut soc, p, CORES)
            }) {
                Ok(c) => obs.push(Obs::new(
                    ("offload", ki),
                    c.verified,
                    offload_fingerprint(&c),
                )),
                Err(_) => obs.push(Obs::error(("offload", ki))),
            }
        }
    }
}

fn offload_fingerprint(c: &ClusterRun) -> u64 {
    let o = &c.offload;
    let mut h = Fnv64::new();
    h.write_u64(o.team.cycles.get())
        .write_u64(o.overhead_cycles.get())
        .write_u64(o.total_soc_cycles.get());
    h.finish()
}

impl Workload for Fig6Offload {
    fn rep(&mut self, spans: &mut Spans, obs: &mut Vec<Obs>) {
        self.team_cycles = 0;
        self.overhead_cycles = 0;
        let p = &self.params;
        for k in self.order {
            let ki = kernel_index(k);
            let Ok(mut soc) = spans.time(call::NEW, layer::SOC, || HulkV::new(offload_soc()))
            else {
                obs.push(Obs::error(("soc.new", ki)));
                continue;
            };
            match spans.time(call::RUN_ON_HOST, layer::HOST, || {
                k.run_on_host(&mut soc, p)
            }) {
                Ok(h) => {
                    spans.annotate(h.cycles.get());
                    obs.push(Obs::new(("host", ki), h.verified, h.cycles.get()));
                }
                Err(_) => obs.push(Obs::error(("host", ki))),
            }
            for _ in 0..OFFLOADS_PER_KERNEL {
                let name = offload_call(k);
                match spans.time(name, layer::CLUSTER, || {
                    k.run_on_cluster(&mut soc, p, CORES)
                }) {
                    Ok(c) => {
                        let o = &c.offload;
                        spans.annotate(o.team.cycles.get());
                        obs.push(Obs::new(
                            ("offload", ki),
                            c.verified,
                            offload_fingerprint(&c),
                        ));
                        self.team_cycles += o.team.cycles.get();
                        self.overhead_cycles += o.overhead_cycles.get();
                    }
                    Err(_) => obs.push(Obs::error(("offload", ki))),
                }
            }
            self.socs.push(soc);
        }
        let (h, w, rows) = self.tile;
        let Ok(mut soc) = spans.time(call::NEW, layer::SOC, || HulkV::new(offload_soc())) else {
            obs.push(Obs::error(("soc.new", 9)));
            return;
        };
        match spans.time(call::TILED_CONV, layer::MEM, || {
            run_tiled_conv(&mut soc, h, w, rows, CORES)
        }) {
            Ok(r) => {
                spans.annotate(r.tiles as u64);
                let mut f = Fnv64::new();
                f.write_u64(r.tiles as u64)
                    .write_u64(r.compute_cycles.get())
                    .write_u64(r.dma_cycles.get());
                obs.push(Obs::new(("tiled_conv", 0), r.verified, f.finish()));
            }
            Err(_) => obs.push(Obs::error(("tiled_conv", 0))),
        }
        self.socs.push(soc);
    }

    fn settle(&mut self, obs: &mut Vec<Obs>) -> u64 {
        let mut retired = 0;
        self.llc = (0, 0);
        for (i, soc) in self.socs.drain(..).enumerate() {
            obs.push(Obs::new(("digest", i as u64), true, soc.state_digest()));
            retired += instret(&soc);
            let (c, b) = llc_counts(&soc);
            self.llc = (self.llc.0 + c, self.llc.1 + b);
        }
        retired
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("offload.team_cycles", self.team_cycles as f64),
            ("offload.overhead_cycles", self.overhead_cycles as f64),
            ("llc.cacheable", self.llc.0 as f64),
            ("llc.bypassed", self.llc.1 as f64),
        ]
    }

    fn describe(&self) -> String {
        let p = &self.params;
        let order: Vec<_> = self.order.iter().map(|k| k.name()).collect();
        format!(
            "kernel order {}; matmul_n {} f16_n {} conv {}x{} fir {}x{} relu {} pool {}x{} vec {}; \
             tiled conv {}x{} by {} rows; {} offloads per kernel",
            order.join(","),
            p.matmul_n,
            p.f16_n,
            p.conv_h,
            p.conv_w,
            p.fir_n,
            p.fir_taps,
            p.relu_n,
            p.pool_h,
            p.pool_w,
            p.vec_n,
            self.tile.0,
            self.tile.1,
            self.tile.2,
            OFFLOADS_PER_KERNEL
        )
    }
}

// ------------------------------------------------------------------ replay

/// The kernel the replay workload records.
const REPLAY_KERNEL: Kernel = Kernel::MatMulI8;
/// Checkpoint ring capacity: more than a recording ever takes, so every
/// checkpoint survives.
const RING: usize = 4096;
/// Checkpoints resumed per rep, one from each quarter of the recording.
const RESUMES: usize = 4;

/// Positions in `[0, 1)` of the checkpoints to resume, one per quarter,
/// mirrored so they always sum to 2: resuming replays the rest of the
/// run, so every seed then replays about the same amount of work.
fn resume_positions(u: [f64; 2]) -> [f64; RESUMES] {
    [
        u[0] / 4.0,
        (1.0 + u[1]) / 4.0,
        (3.0 - u[1]) / 4.0,
        (4.0 - u[0]) / 4.0,
    ]
}

/// The `hulkv-replay` flow through library calls: record a Figure-6
/// kernel with a short checkpoint period, save and load the recording,
/// restore and digest every checkpoint, then resume from a few.
pub struct Replay {
    params: KernelParams,
    period: u64,
    /// Where among the checkpoints to resume, as fractions in `[0, 1)`.
    resume_at: [f64; RESUMES],
    /// Seed of the order checkpoints are restored in.
    restore_seed: u64,
    /// The restore order, drawn once the checkpoint count is known.
    restore_order: Vec<usize>,
    retired: u64,
    checkpoints: u64,
    bytes: u64,
    llc: (u64, u64),
}

impl Replay {
    fn new(rng: &mut SplitMix64) -> Self {
        // The matrix size stays fixed: `Recording::from_bytes` is
        // quadratic in the journal size, so a size draw would swing the
        // rep's cost by far more than the other draws.
        let mut params = KernelParams::small();
        params.matmul_n = 24;
        Replay {
            params,
            period: draw(rng, 1750, 1850, 25) as u64,
            resume_at: resume_positions([rng.next_f64(), rng.next_f64()]),
            restore_seed: rng.next_u64(),
            restore_order: Vec::new(),
            retired: 0,
            checkpoints: 0,
            bytes: 0,
            llc: (0, 0),
        }
    }

    fn resume_indices(&self, n: usize) -> [usize; RESUMES] {
        self.resume_at
            .map(|at| ((at * n as f64) as usize).min(n.saturating_sub(1)))
    }
}

impl Workload for Replay {
    fn rep(&mut self, spans: &mut Spans, obs: &mut Vec<Obs>) {
        let cfg = SocConfig::default();
        let recorded = spans.time(call::RECORD, layer::SOC, || {
            let mut rec = Recorder::new(cfg.clone(), self.period, RING)?;
            record_fig6_kernel(&mut rec, REPLAY_KERNEL, &self.params, CORES)?;
            Ok::<_, SocError>(rec.finish())
        });
        let Ok((soc, recording)) = recorded else {
            obs.push(Obs::error(("record", 0)));
            return;
        };
        spans.annotate(soc.host().core().cycles().get());
        let final_digest = spans.time(call::DIGEST, layer::SIM, || soc.state_digest());
        obs.push(Obs::new(("record", 0), true, final_digest));
        self.retired += instret(&soc);
        self.llc = llc_counts(&soc);

        let bytes = spans.time(call::SAVE, layer::SIM, || recording.to_bytes());
        spans.annotate(bytes.len() as u64);
        obs.push(Obs::new(("save", 0), true, bytes.len() as u64));
        self.bytes = bytes.len() as u64;
        let Ok(loaded) = spans.time(call::LOAD, layer::SIM, || Recording::from_bytes(&bytes))
        else {
            obs.push(Obs::error(("load", 0)));
            return;
        };
        spans.annotate(bytes.len() as u64);
        let n = loaded.checkpoints.len();
        obs.push(Obs::new(
            ("load", 0),
            n == recording.checkpoints.len() && loaded.commands == recording.commands,
            n as u64,
        ));
        self.checkpoints = n as u64;

        // The first checkpoint is the machine as built.
        let fresh = match spans.time(call::NEW, layer::SOC, || HulkV::new(cfg)) {
            Ok(s) => spans.time(call::DIGEST, layer::SIM, || s.state_digest()),
            Err(_) => {
                obs.push(Obs::error(("soc.new", 0)));
                0
            }
        };
        if self.restore_order.len() != n {
            self.restore_order = (0..n).collect();
            shuffle(
                &mut SplitMix64::new(self.restore_seed),
                &mut self.restore_order,
            );
        }
        let mut at_checkpoint = vec![0; n];
        for &i in &self.restore_order {
            let cp = &loaded.checkpoints[i];
            match spans.time(call::RESTORE, layer::SIM, || loaded.restore_checkpoint(cp)) {
                Ok(s) => {
                    let d = spans.time(call::DIGEST, layer::SIM, || s.state_digest());
                    obs.push(Obs::new(("restore", i as u64), i > 0 || d == fresh, d));
                    at_checkpoint[i] = instret(&s);
                }
                Err(_) => obs.push(Obs::error(("restore", i as u64))),
            }
        }
        let end = instret(&soc);
        for i in self.resume_indices(n) {
            match spans.time(call::RESUME, layer::SOC, || loaded.resume_from(i)) {
                Ok(s) => {
                    let d = spans.time(call::DIGEST, layer::SIM, || s.state_digest());
                    obs.push(Obs::new(("resume", i as u64), d == final_digest, d));
                    self.retired += end.saturating_sub(at_checkpoint[i]);
                }
                Err(_) => obs.push(Obs::error(("resume", i as u64))),
            }
        }
    }

    fn settle(&mut self, _obs: &mut Vec<Obs>) -> u64 {
        std::mem::take(&mut self.retired)
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("replay.checkpoints", self.checkpoints as f64),
            ("replay.snapshot_bytes", self.bytes as f64),
            ("llc.cacheable", self.llc.0 as f64),
            ("llc.bypassed", self.llc.1 as f64),
        ]
    }

    fn describe(&self) -> String {
        format!(
            "{} n={} on {} cores; checkpoint period {} host cycles; resume at fractions {:.3?}",
            REPLAY_KERNEL.name(),
            self.params.matmul_n,
            CORES,
            self.period,
            self.resume_at
        )
    }
}
