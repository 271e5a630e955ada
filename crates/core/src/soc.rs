//! The HULK-V SoC top level.

use crate::config::{MainMemory, SocConfig};
use crate::iopmp::IoPmp;
use crate::mailbox::Mailbox;
use hulkv_cluster::{Cluster, TeamResult};
use hulkv_host::{Clint, Host, Plic};
use hulkv_mem::{Bus, Ddr, DmaEngine, HyperRam, Llc, SharedMem, Sram, Transfer1d};
use hulkv_rv::{Core, Reg, RvError};
use hulkv_sim::{
    convert_freq, Cycles, Json, MetricsSnapshot, SharedTracer, SimError, SnapResult, Snapshot,
    Stats, Timeline, TimelineWindow, TraceEvent, Track,
};
use std::cell::RefCell;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

/// The HULK-V physical address map.
pub mod map {
    /// Core-local interruptor.
    pub const CLINT_BASE: u64 = 0x0200_0000;
    /// Platform-level interrupt controller.
    pub const PLIC_BASE: u64 = 0x0C00_0000;
    /// Base of the peripheral-domain register windows (UART, I2S, …).
    pub const PERIPH_BASE: u64 = 0x1A10_0000;
    /// 512 kB L2 scratchpad of the host domain.
    pub const L2SPM_BASE: u64 = 0x1C00_0000;
    /// Main DRAM (HyperRAM or DDR4) window.
    pub const DRAM_BASE: u64 = 0x8000_0000;
    /// Host benchmark code region inside DRAM.
    pub const HOST_CODE: u64 = DRAM_BASE + 0x0010_0000;
    /// Kernel fat-binary store inside DRAM (where the Linux driver keeps
    /// PMCA binaries before they are lazily loaded into the L2SPM).
    pub const KERNEL_STORE: u64 = DRAM_BASE + 0x0100_0000;
    /// Start of the `hulk_malloc` shared window (32-bit addressable, so
    /// the PMCA can dereference host pointers directly).
    pub const SHARED_BASE: u64 = DRAM_BASE + 0x0200_0000;
}

/// The IOPMP allow windows [`HulkV::new`] configures for `cfg`: the L2SPM
/// (kernel code) and the whole DRAM window (shared buffers). Exposed so
/// tooling (e.g. the static analyzer) can reason about the cluster's view
/// of the address space without instantiating a SoC.
pub fn default_iopmp_windows(cfg: &SocConfig) -> Vec<(u64, u64)> {
    vec![
        (map::L2SPM_BASE, cfg.l2spm_bytes as u64),
        (map::DRAM_BASE, cfg.main_memory_bytes()),
    ]
}

/// The host-visible physical regions `(name, base, size)` the AXI bus in
/// [`HulkV::new`] maps for `cfg`. Data accesses outside these windows fault
/// on the real interconnect; tooling uses this as the host's memory view.
pub fn host_regions(cfg: &SocConfig) -> Vec<(&'static str, u64, u64)> {
    vec![
        ("clint", map::CLINT_BASE, 0xC000),
        ("plic", map::PLIC_BASE, 0x40_0000),
        ("l2spm", map::L2SPM_BASE, cfg.l2spm_bytes as u64),
        ("dram", map::DRAM_BASE, cfg.main_memory_bytes()),
    ]
}

/// Errors from SoC-level operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum SocError {
    /// A memory-system failure.
    Mem(SimError),
    /// A core execution failure.
    Exec(RvError),
    /// The shared-region allocator is exhausted.
    OutOfSharedMemory {
        /// Bytes requested.
        requested: usize,
    },
    /// The L2SPM cannot hold another kernel binary.
    OutOfKernelSpace,
}

impl fmt::Display for SocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocError::Mem(e) => write!(f, "memory system: {e}"),
            SocError::Exec(e) => write!(f, "execution: {e}"),
            SocError::OutOfSharedMemory { requested } => {
                write!(f, "hulk_malloc cannot satisfy {requested} bytes")
            }
            SocError::OutOfKernelSpace => write!(f, "no L2SPM space left for kernel code"),
        }
    }
}

impl Error for SocError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SocError::Mem(e) => Some(e),
            SocError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for SocError {
    fn from(e: SimError) -> Self {
        SocError::Mem(e)
    }
}

impl From<RvError> for SocError {
    fn from(e: RvError) -> Self {
        SocError::Exec(e)
    }
}

/// Handle to a registered PMCA kernel binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelId(usize);

impl KernelId {
    /// The kernel's registration index (ids are handed out sequentially).
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug)]
struct KernelState {
    dram_addr: u64,
    bytes: usize,
    loaded_at: Option<u64>,
}

/// Result of one [`HulkV::offload`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OffloadResult {
    /// End-to-end offload time in SoC-domain cycles (overhead + team).
    pub total_soc_cycles: Cycles,
    /// The overhead part: driver descriptor, mailbox doorbells and (on the
    /// first call) the lazy code load into the L2SPM.
    pub overhead_cycles: Cycles,
    /// The cluster-side execution, in cluster cycles.
    pub team: TeamResult,
    /// Whether this call performed the lazy code load.
    pub code_loaded: bool,
}

/// Typed handle onto the main-memory device, so snapshots can reach the
/// concrete type's backdoors without `MemoryDevice::read` side effects.
#[derive(Debug)]
enum DramDevice {
    Hyper(Rc<RefCell<HyperRam>>),
    Ddr(Rc<RefCell<Ddr>>),
}

impl DramDevice {
    fn content_digest(&self) -> u64 {
        match self {
            DramDevice::Hyper(h) => h.borrow().content_digest(),
            DramDevice::Ddr(d) => d.borrow().content_digest(),
        }
    }
}

/// A complete HULK-V SoC instance.
///
/// See the [crate docs](crate) for the offload example; host-only
/// benchmarks use [`HulkV::run_host_program`].
#[derive(Debug)]
pub struct HulkV {
    cfg: SocConfig,
    host: Host,
    cluster: Cluster,
    bus: SharedMem,
    bus_typed: Rc<RefCell<Bus>>,
    clint: Rc<RefCell<Clint>>,
    plic: Rc<RefCell<Plic>>,
    l2spm: SharedMem,
    // Typed aliases of the erased handles above/below, so snapshot and
    // digest paths read device internals directly (no stats perturbation).
    l2spm_typed: Rc<RefCell<Sram>>,
    dram_typed: DramDevice,
    llc_typed: Option<Rc<RefCell<Llc>>>,
    iopmp: Rc<RefCell<IoPmp>>,
    dram_raw: SharedMem,
    dram_front: SharedMem,
    udma: DmaEngine,
    mailbox: Mailbox,
    kernels: Vec<KernelState>,
    kernel_store_next: u64,
    l2_code_next: u64,
    shared_next: u64,
    stats: Stats,
    tracer: Option<SharedTracer>,
    timeline: Option<Timeline>,
    /// Telemetry cycle cursor in the SoC-interconnect clock domain.
    timeline_now: u64,
    /// Live-telemetry callback: invoked once per newly closed timeline
    /// window. The sink only *reads* the window, so attaching one is as
    /// cycle-neutral as the timeline itself.
    window_sink: Option<WindowSink>,
    /// Windows already handed to the sink (index into the timeline).
    windows_published: usize,
}

/// Boxed live-window callback accepted by [`HulkV::set_window_sink`].
pub type WindowSinkFn = Box<dyn FnMut(&TimelineWindow)>;

/// Opaque wrapper so [`HulkV`] stays `Debug` with a boxed closure field.
struct WindowSink(WindowSinkFn);

impl fmt::Debug for WindowSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("WindowSink(..)")
    }
}

impl HulkV {
    /// Builds the SoC from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::Mem`] for inconsistent memory geometry.
    pub fn new(cfg: SocConfig) -> Result<Self, SocError> {
        let (dram_typed, dram_raw): (DramDevice, SharedMem) = match &cfg.main_memory {
            MainMemory::HyperRam(h) => {
                let t = Rc::new(RefCell::new(HyperRam::try_new(h.clone())?));
                (DramDevice::Hyper(t.clone()), t)
            }
            MainMemory::Ddr(d) => {
                let t = Rc::new(RefCell::new(Ddr::new(*d)));
                (DramDevice::Ddr(t.clone()), t)
            }
        };
        let (llc_typed, dram_front): (Option<Rc<RefCell<Llc>>>, SharedMem) = match &cfg.llc {
            Some(llc_cfg) => {
                let t = Rc::new(RefCell::new(Llc::new(llc_cfg.clone(), dram_raw.clone())?));
                (Some(t.clone()), t)
            }
            None => (None, dram_raw.clone()),
        };

        let l2spm_typed = Rc::new(RefCell::new(Sram::new(
            "l2spm",
            cfg.l2spm_bytes,
            Cycles::new(1),
        )));
        let l2spm: SharedMem = l2spm_typed.clone();
        let clint = Rc::new(RefCell::new(Clint::new()));
        let plic = Rc::new(RefCell::new(Plic::new()));
        let mut bus = Bus::new("axi", Cycles::new(2));
        bus.map("clint", map::CLINT_BASE, clint.clone())?;
        bus.map("plic", map::PLIC_BASE, plic.clone())?;
        bus.map("l2spm", map::L2SPM_BASE, l2spm.clone())?;
        bus.map("dram", map::DRAM_BASE, dram_front.clone())?;
        let bus_typed = Rc::new(RefCell::new(bus));
        let bus: SharedMem = bus_typed.clone();

        let host = Host::new(cfg.host.clone(), bus.clone());

        // The IOPMP lets the cluster reach the L2SPM (kernel code) and the
        // whole DRAM window (shared buffers); nothing else.
        let mut pmp = IoPmp::new(bus.clone());
        pmp.allow(map::L2SPM_BASE, cfg.l2spm_bytes as u64);
        pmp.allow(map::DRAM_BASE, cfg.main_memory_bytes());
        let iopmp = Rc::new(RefCell::new(pmp));
        let cluster = Cluster::new(cfg.cluster.clone(), iopmp.clone());

        Ok(HulkV {
            host,
            cluster,
            bus,
            bus_typed,
            clint,
            plic,
            l2spm,
            l2spm_typed,
            dram_typed,
            llc_typed,
            iopmp,
            dram_raw,
            dram_front,
            udma: DmaEngine::new("udma", Cycles::new(12), 64),
            mailbox: Mailbox::new(8),
            kernels: Vec::new(),
            kernel_store_next: map::KERNEL_STORE,
            l2_code_next: 0,
            shared_next: map::SHARED_BASE,
            stats: Stats::new("soc"),
            tracer: None,
            timeline: None,
            timeline_now: 0,
            window_sink: None,
            windows_published: 0,
            cfg,
        })
    }

    /// Attaches a structured tracer to the whole SoC: the host core and its
    /// L1 caches, the cluster cores and DMA, the µDMA, the LLC and the main
    /// memory all record onto their own tracks, and the SoC level records
    /// offload and mailbox events.
    pub fn attach_tracer(&mut self, tracer: SharedTracer) {
        self.host.set_tracer(tracer.clone());
        self.cluster.set_tracer(tracer.clone());
        self.udma.set_tracer(tracer.clone(), Track::Dma);
        // Covers both memory setups: with an LLC the front device forwards
        // the handle to the raw DRAM behind it; without one it *is* the
        // raw DRAM.
        self.dram_front.borrow_mut().attach_tracer(tracer.clone());
        self.tracer = Some(tracer);
    }

    fn trace(&self, event: TraceEvent) {
        if let Some(t) = &self.tracer {
            t.borrow_mut().record(Track::Soc, event);
        }
    }

    /// Enables windowed telemetry: every `period_cycles` SoC-interconnect
    /// cycles the SoC snapshots all block counters into a [`Timeline`]
    /// window. Sampling is read-only — an identical run with the sampler
    /// off is cycle-bit-identical (see the neutrality test).
    pub fn enable_timeline(&mut self, period_cycles: u64) {
        self.timeline = Some(Timeline::new(period_cycles));
        self.timeline_now = 0;
        self.windows_published = 0;
    }

    /// Installs a live window sink: every window the timeline closes is
    /// handed to `sink` exactly once, during [`HulkV::timeline_sample`].
    /// The sink observes windows that are also retained in the timeline,
    /// so enabling one changes nothing about the run's deterministic
    /// outputs (see the telemetry neutrality test).
    pub fn set_window_sink(&mut self, sink: WindowSinkFn) {
        self.window_sink = Some(WindowSink(sink));
    }

    /// Removes the live window sink, returning it.
    pub fn take_window_sink(&mut self) -> Option<WindowSinkFn> {
        self.window_sink.take().map(|s| s.0)
    }

    /// The telemetry timeline, when enabled.
    pub fn timeline(&self) -> Option<&Timeline> {
        self.timeline.as_ref()
    }

    /// Detaches the telemetry timeline (for enrichment and export after a
    /// run); sampling stops until [`HulkV::enable_timeline`] is called
    /// again.
    pub fn take_timeline(&mut self) -> Option<Timeline> {
        self.windows_published = 0;
        self.timeline.take()
    }

    /// The telemetry cycle cursor (SoC-interconnect domain).
    pub fn timeline_cycle(&self) -> u64 {
        self.timeline_now
    }

    /// Closes the current telemetry window at the cursor, recording every
    /// block's counter deltas. No-op when the timeline is off or the
    /// cursor has not advanced past the open window's start.
    pub fn timeline_sample(&mut self) {
        if self.timeline.is_none() {
            return;
        }
        let blocks = self.metrics_snapshot().blocks;
        let now = self.timeline_now;
        if let Some(tl) = self.timeline.as_mut() {
            tl.sample(now, &blocks);
            if let Some(WindowSink(sink)) = self.window_sink.as_mut() {
                for w in &tl.windows()[self.windows_published.min(tl.len())..] {
                    sink(w);
                }
                self.windows_published = tl.len();
            }
        }
    }

    /// The configuration this SoC was built with.
    pub fn config(&self) -> &SocConfig {
        &self.cfg
    }

    /// The CVA6 host subsystem.
    pub fn host(&self) -> &Host {
        &self.host
    }

    /// Mutable host access.
    pub fn host_mut(&mut self) -> &mut Host {
        &mut self.host
    }

    /// The PMCA.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable PMCA access.
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// The mailbox between the subsystems.
    pub fn mailbox(&self) -> &Mailbox {
        &self.mailbox
    }

    /// Maps an extra device (typically a peripheral at
    /// [`map::PERIPH_BASE`]`+ …`) onto the host interconnect.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::Mem`] if the region overlaps an existing one.
    pub fn map_device(
        &mut self,
        name: impl Into<String>,
        base: u64,
        device: SharedMem,
    ) -> Result<(), SocError> {
        self.bus_typed.borrow_mut().map(name, base, device)?;
        Ok(())
    }

    /// Runs a µDMA transfer between two interconnect addresses (e.g.
    /// draining an I2S FIFO into the L2SPM) and returns its SoC cycles.
    ///
    /// # Errors
    ///
    /// Propagates routing/range errors from either end.
    pub fn udma_transfer(&mut self, src: u64, dst: u64, bytes: usize) -> Result<Cycles, SocError> {
        let lat = self
            .udma
            .run_1d(&self.bus, &self.bus, Transfer1d { src, dst, bytes })?;
        self.stats.add("udma_bytes", bytes as u64);
        Ok(lat)
    }

    /// Advances the peripheral-domain time base by `ticks` and refreshes
    /// the host core's pending-interrupt bits from the CLINT and PLIC.
    pub fn advance_time(&mut self, ticks: u64) {
        self.clint.borrow_mut().advance(ticks);
        self.refresh_interrupts();
    }

    /// Asserts peripheral interrupt line `id` at the PLIC.
    ///
    /// # Panics
    ///
    /// Panics for source id 0 or ≥ 64.
    pub fn raise_peripheral_irq(&mut self, id: u32) {
        self.plic.borrow_mut().raise(id);
        self.refresh_interrupts();
    }

    fn refresh_interrupts(&mut self) {
        let timer = self.clint.borrow().timer_pending();
        let sw = self.clint.borrow().software_pending();
        let ext = self.plic.borrow().external_pending();
        let core = self.host.core_mut();
        core.set_interrupt_pending(7, timer);
        core.set_interrupt_pending(3, sw);
        core.set_interrupt_pending(11, ext);
    }

    /// SoC-level activity counters.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Clones the counters of a shared device — the one aggregation path
    /// for every block surfaced through a [`SharedMem`] handle.
    fn device_stats(dev: &SharedMem) -> Stats {
        dev.borrow().stats().clone()
    }

    /// Statistics of the raw main-memory device (bytes moved, bursts…).
    pub fn dram_stats(&self) -> Stats {
        Self::device_stats(&self.dram_raw)
    }

    /// LLC hit/miss statistics (empty when the LLC is absent).
    pub fn llc_stats(&self) -> Stats {
        if self.cfg.llc.is_some() {
            // The front device is the LLC; its cache stats live one level in.
            // We surface them through the generic stats() of the device.
            Self::device_stats(&self.dram_front)
        } else {
            Stats::new("llc_absent")
        }
    }

    /// Collects the counters of every block of the SoC into one
    /// machine-readable snapshot: SoC level, host core, L1 caches, cluster,
    /// µDMA, LLC and main memory. Power and figure entries are left for the
    /// caller to fill in.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.push_block(self.stats.clone());
        snap.push_block(self.host.core().stats());
        snap.push_block(self.host.l1i_stats().clone());
        snap.push_block(self.host.l1d_stats().clone());
        snap.push_block(self.cluster.stats().clone());
        snap.push_block(self.udma.stats().clone());
        snap.push_block(self.llc_stats());
        snap.push_block(self.dram_stats());
        if let Some(t) = &self.tracer {
            // Ring-buffer health (event and per-category drop counts).
            // Only present when a tracer is attached, so untraced runs
            // keep their exact historical block list.
            snap.push_block(t.borrow().stats());
        }
        snap
    }

    /// FNV-1a digest of the complete SoC state: host (core + L1s), CLINT,
    /// PLIC, mailbox, IOPMP, L2SPM, main memory, LLC, cluster, and the
    /// runtime bookkeeping (kernel table and allocator cursors). Two
    /// identically-driven SoCs agree on this digest; a snapshot restore
    /// reproduces it exactly.
    pub fn state_digest(&self) -> u64 {
        let mut h = hulkv_sim::Fnv64::new();
        h.write_u64(self.host.state_digest())
            .write_u64(self.clint.borrow().state_digest())
            .write_u64(self.plic.borrow().state_digest())
            .write_u64(self.mailbox.state_digest())
            .write_u64(self.iopmp.borrow().state_digest())
            .write_u64(self.l2spm_typed.borrow().content_digest())
            .write_u64(self.dram_typed.content_digest())
            .write_u64(
                self.llc_typed
                    .as_ref()
                    .map_or(0, |llc| llc.borrow().state_digest()),
            )
            .write_u64(self.cluster.state_digest());
        h.write_u64(self.kernels.len() as u64);
        for k in &self.kernels {
            h.write_u64(k.dram_addr)
                .write_u64(k.bytes as u64)
                .write_u64(k.loaded_at.map_or(u64::MAX, |o| o));
        }
        h.write_u64(self.kernel_store_next)
            .write_u64(self.l2_code_next)
            .write_u64(self.shared_next)
            .finish()
    }

    /// Serializes the complete SoC into a versioned, schema-checked
    /// [`Snapshot`]: every core register/CSR/decode-cache entry, device
    /// registers, cache contents, memory images (page-compact) and runtime
    /// bookkeeping. Taking a snapshot reads nothing through the timed
    /// memory paths, so it perturbs no counters — snapshot-then-continue is
    /// bit-identical to an uninterrupted run.
    ///
    /// Observability attachments (tracer, timeline windows) are not
    /// captured; re-attach them after restore if needed.
    pub fn snapshot(&self) -> Snapshot {
        use hulkv_sim::snap::{hex, stats_to_json};
        let mut snap = Snapshot::new();
        snap.set_section("config", self.cfg.to_json());
        let host = self.host.snapshot_into(&mut snap);
        snap.set_section("host", host);
        snap.set_section("clint", self.clint.borrow().snapshot_json());
        snap.set_section("plic", self.plic.borrow().snapshot_json());
        snap.set_section("mailbox", self.mailbox.snapshot_json());
        snap.set_section("iopmp", self.iopmp.borrow().snapshot_json());
        let l2 = self.l2spm_typed.borrow().snapshot_into(&mut snap);
        snap.set_section("l2spm", l2);
        let dram = match &self.dram_typed {
            DramDevice::Hyper(h) => {
                let dev = h.borrow().snapshot_into(&mut snap);
                Json::obj([("kind", Json::Str("hyperram".into())), ("dev", dev)])
            }
            DramDevice::Ddr(d) => {
                let dev = d.borrow().snapshot_into(&mut snap);
                Json::obj([("kind", Json::Str("ddr".into())), ("dev", dev)])
            }
        };
        snap.set_section("dram", dram);
        if let Some(llc) = &self.llc_typed {
            let l = llc.borrow().snapshot_into(&mut snap);
            snap.set_section("llc", l);
        }
        let cluster = self.cluster.snapshot_into(&mut snap);
        snap.set_section("cluster", cluster);
        let kernels = Json::Arr(
            self.kernels
                .iter()
                .map(|k| {
                    Json::obj([
                        ("dram_addr", hex(k.dram_addr)),
                        ("bytes", hex(k.bytes as u64)),
                        ("loaded_at", k.loaded_at.map_or(Json::Null, hex)),
                    ])
                })
                .collect(),
        );
        snap.set_section(
            "soc",
            Json::obj([
                ("kernels", kernels),
                ("kernel_store_next", hex(self.kernel_store_next)),
                ("l2_code_next", hex(self.l2_code_next)),
                ("shared_next", hex(self.shared_next)),
                ("timeline_now", hex(self.timeline_now)),
                ("stats", stats_to_json(&self.stats)),
                ("udma", self.udma.snapshot_json()),
                ("bus", self.bus_typed.borrow().snapshot_json()),
            ]),
        );
        snap
    }

    /// Restores state written by [`HulkV::snapshot`] into a SoC built with
    /// the identical configuration (checked). Continuing after a restore is
    /// bit-identical — same cycles, same stats, same digests — to the run
    /// the snapshot was taken from.
    ///
    /// # Errors
    ///
    /// On configuration mismatch or a malformed snapshot.
    pub fn restore(&mut self, snap: &Snapshot) -> SnapResult<()> {
        use hulkv_sim::snap::{get, get_arr, get_u64, restore_stats, unhex, SnapError};
        if *snap.section("config")? != self.cfg.to_json() {
            return Err(SnapError::msg(
                "snapshot configuration differs from this SoC's — use HulkV::from_snapshot",
            ));
        }
        self.host.restore_from(snap, snap.section("host")?)?;
        self.clint
            .borrow_mut()
            .restore_json(snap.section("clint")?)?;
        self.plic.borrow_mut().restore_json(snap.section("plic")?)?;
        self.mailbox.restore_json(snap.section("mailbox")?)?;
        self.iopmp
            .borrow_mut()
            .restore_json(snap.section("iopmp")?)?;
        self.l2spm_typed
            .borrow_mut()
            .restore_from(snap, snap.section("l2spm")?)?;
        let dram = snap.section("dram")?;
        match (&self.dram_typed, get(dram, "kind")?.as_str()) {
            (DramDevice::Hyper(h), Some("hyperram")) => {
                h.borrow_mut().restore_from(snap, get(dram, "dev")?)?;
            }
            (DramDevice::Ddr(d), Some("ddr")) => {
                d.borrow_mut().restore_from(snap, get(dram, "dev")?)?;
            }
            _ => return Err(SnapError::msg("main-memory kind mismatch")),
        }
        match (&self.llc_typed, snap.has_section("llc")) {
            (Some(llc), true) => llc.borrow_mut().restore_from(snap, snap.section("llc")?)?,
            (None, false) => {}
            _ => return Err(SnapError::msg("LLC presence mismatch")),
        }
        self.cluster.restore_from(snap, snap.section("cluster")?)?;
        let s = snap.section("soc")?;
        let mut kernels = Vec::new();
        for k in get_arr(s, "kernels")? {
            kernels.push(KernelState {
                dram_addr: get_u64(k, "dram_addr")?,
                bytes: get_u64(k, "bytes")? as usize,
                loaded_at: match get(k, "loaded_at")? {
                    Json::Null => None,
                    v => Some(unhex(v)?),
                },
            });
        }
        self.kernels = kernels;
        self.kernel_store_next = get_u64(s, "kernel_store_next")?;
        self.l2_code_next = get_u64(s, "l2_code_next")?;
        self.shared_next = get_u64(s, "shared_next")?;
        self.timeline_now = get_u64(s, "timeline_now")?;
        restore_stats(&mut self.stats, get(s, "stats")?)?;
        self.udma.restore_json(get(s, "udma")?)?;
        self.bus_typed.borrow_mut().restore_json(get(s, "bus")?)?;
        // The host core's pending-interrupt bits (MIP) were restored with
        // its CSR file; deriving them again from CLINT/PLIC here would bump
        // the CSR version and perturb the decode-cache stamps.
        Ok(())
    }

    /// Builds a SoC from a snapshot alone: reconstructs the configuration
    /// embedded in the `config` section, then restores the full state.
    ///
    /// # Errors
    ///
    /// On a malformed snapshot or an unbuildable configuration.
    pub fn from_snapshot(snap: &Snapshot) -> SnapResult<HulkV> {
        use hulkv_sim::snap::SnapError;
        let cfg = SocConfig::from_json(snap.section("config")?)?;
        let mut soc = HulkV::new(cfg)
            .map_err(|e| SnapError::msg(format!("snapshot config does not build: {e}")))?;
        soc.restore(snap)?;
        Ok(soc)
    }

    /// Side-effect-free memory read through the interconnect: no latency,
    /// no counters, no cache-LRU or claim-register perturbation; resident
    /// cache lines overlay their backing stores. The debugger's inspection
    /// path — interleaving peeks into a run leaves it bit-identical.
    ///
    /// # Errors
    ///
    /// Propagates routing/range errors.
    pub fn peek_mem(&self, addr: u64, buf: &mut [u8]) -> Result<(), SocError> {
        use hulkv_mem::MemoryDevice;
        self.bus_typed.borrow().peek(addr, buf)?;
        Ok(())
    }

    /// Loads a host program at [`map::HOST_CODE`] and prepares the core
    /// (PC, stack pointer, then `regs`), leaving it resumed but not yet
    /// run: the flight recorder and the replay debugger drive execution in
    /// explicit [`HulkV::run_host_until`] windows.
    ///
    /// # Errors
    ///
    /// Propagates loading errors.
    pub fn start_host_program(
        &mut self,
        words: &[u32],
        regs: &[(Reg, u64)],
    ) -> Result<(), SocError> {
        self.host.load_program(map::HOST_CODE, words)?;
        let core = self.host.core_mut();
        core.set_pc(map::HOST_CODE);
        core.set_reg(Reg::Sp, map::L2SPM_BASE + self.cfg.l2spm_bytes as u64);
        for &(r, v) in regs {
            core.set_reg(r, v);
        }
        core.resume();
        Ok(())
    }

    /// Advances an in-flight host program (started with
    /// [`HulkV::start_host_program`] or left mid-run by a restored
    /// snapshot) until the host core's *total* cycle count reaches `target`
    /// or the program halts; returns whether it halted. Timeline sampling
    /// boundaries are honored inside the window, and the underlying step
    /// sequence is the one an unchunked run would execute, so any chunking
    /// of the same program is cycle-bit-identical.
    ///
    /// # Errors
    ///
    /// Propagates execution errors (never a timeout — budget enforcement is
    /// the caller's).
    pub fn run_host_until(&mut self, target: u64) -> Result<bool, SocError> {
        if self.timeline.is_none() {
            return Ok(self.host.run_until_cycle(target)?);
        }
        let host_freq = self.cfg.host.freq;
        let soc_freq = self.cfg.host.soc_freq;
        loop {
            let next_due = self.timeline.as_ref().map_or(u64::MAX, Timeline::next_due);
            let delta_soc = next_due.saturating_sub(self.timeline_now).max(1);
            let delta_host = convert_freq(Cycles::new(delta_soc), soc_freq, host_freq)
                .get()
                .max(1);
            let anchor = self.host.core().cycles().get();
            let chunk = anchor.saturating_add(delta_host).min(target);
            let halted = self.host.run_until_cycle(chunk)?;
            let now = self.host.core().cycles().get();
            self.timeline_now += convert_freq(Cycles::new(now - anchor), host_freq, soc_freq).get();
            if halted {
                self.timeline_sample();
                return Ok(true);
            }
            if self
                .timeline
                .as_ref()
                .is_some_and(|tl| tl.due(self.timeline_now))
            {
                self.timeline_sample();
            }
            if now >= target {
                return Ok(false);
            }
        }
    }

    /// Backdoor memory write through the interconnect (no cycles charged).
    ///
    /// # Errors
    ///
    /// Propagates routing/range errors.
    pub fn write_mem(&mut self, addr: u64, data: &[u8]) -> Result<(), SocError> {
        self.bus.borrow_mut().write(addr, data)?;
        Ok(())
    }

    /// Backdoor memory read through the interconnect.
    ///
    /// # Errors
    ///
    /// Propagates routing/range errors.
    pub fn read_mem(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), SocError> {
        self.bus.borrow_mut().read(addr, buf)?;
        Ok(())
    }

    /// Allocates `bytes` in the shared main-memory window, 64-byte aligned
    /// — the `hulk_malloc()` of the user-space runtime. The returned
    /// address is below 4 GB, so the 32-bit PMCA can dereference it.
    ///
    /// # Errors
    ///
    /// [`SocError::OutOfSharedMemory`] when the window is exhausted.
    pub fn hulk_malloc(&mut self, bytes: usize) -> Result<u64, SocError> {
        let addr = self.shared_next;
        let end = addr
            .checked_add(bytes as u64)
            .ok_or(SocError::OutOfSharedMemory { requested: bytes })?;
        if end > map::DRAM_BASE + self.cfg.main_memory_bytes() {
            return Err(SocError::OutOfSharedMemory { requested: bytes });
        }
        self.shared_next = (end + 63) & !63;
        self.stats.add("hulk_malloc_bytes", bytes as u64);
        Ok(addr)
    }

    /// Registers a PMCA kernel binary: writes it into the DRAM kernel
    /// store (the boot/driver path) and returns a handle for
    /// [`HulkV::offload`]. The code is *not* loaded into the L2SPM yet —
    /// that happens lazily on first offload, as in the paper's OpenMP
    /// runtime.
    ///
    /// # Errors
    ///
    /// Propagates memory errors when the binary does not fit.
    pub fn register_kernel(&mut self, words: &[u32]) -> Result<KernelId, SocError> {
        let mut bytes = Vec::with_capacity(words.len() * 4);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        let addr = self.kernel_store_next;
        self.dram_raw
            .borrow_mut()
            .write(addr - map::DRAM_BASE, &bytes)?;
        self.kernel_store_next = (addr + bytes.len() as u64 + 63) & !63;
        self.kernels.push(KernelState {
            dram_addr: addr,
            bytes: bytes.len(),
            loaded_at: None,
        });
        Ok(KernelId(self.kernels.len() - 1))
    }

    /// Drops the cached L2SPM copy of a kernel, so the next offload pays
    /// the code load again (used by the Figure-6 "×1" experiments).
    pub fn evict_kernel(&mut self, kernel: KernelId) {
        self.kernels[kernel.0].loaded_at = None;
    }

    /// The handle for the `index`-th registered kernel, if it exists.
    /// Replay streams store kernels by registration index.
    pub fn kernel_id(&self, index: usize) -> Option<KernelId> {
        (index < self.kernels.len()).then_some(KernelId(index))
    }

    /// Offloads `kernel` to the PMCA: lazy code load, descriptor + mailbox
    /// doorbell, fork/join team execution, completion doorbell.
    ///
    /// # Errors
    ///
    /// Propagates memory and execution errors.
    pub fn offload(
        &mut self,
        kernel: KernelId,
        args: &[(Reg, u64)],
        num_cores: usize,
        max_cycles: u64,
    ) -> Result<OffloadResult, SocError> {
        let team_cores = num_cores.min(self.cfg.cluster.cores).max(1);
        self.trace(TraceEvent::OffloadBegin {
            kernel: kernel.0 as u32,
            cores: team_cores as u32,
        });
        let mut overhead = Cycles::new(self.cfg.offload_descriptor_cycles);
        overhead += self.mailbox.doorbell_cost() * 2;

        // Lazy code load: µDMA the binary from the DRAM store into the
        // L2SPM (the µDMA connects them directly, bypassing the LLC).
        let k = &self.kernels[kernel.0];
        let (entry_l2, loaded_now) = match k.loaded_at {
            Some(off) => (off, false),
            None => {
                let off = self.l2_code_next;
                if off as usize + k.bytes > self.cfg.l2spm_bytes / 2 {
                    return Err(SocError::OutOfKernelSpace);
                }
                let l2 = self.l2spm.clone();
                let lat = self.udma.run_1d(
                    &self.dram_raw,
                    &l2,
                    Transfer1d {
                        src: k.dram_addr - map::DRAM_BASE,
                        dst: off,
                        bytes: k.bytes,
                    },
                )?;
                overhead += lat;
                self.l2_code_next = (off + k.bytes as u64 + 63) & !63;
                self.kernels[kernel.0].loaded_at = Some(off);
                self.stats.inc("kernel_loads");
                (off, true)
            }
        };

        // Doorbell: descriptor pointer to the cluster, completion back.
        let descriptor = map::L2SPM_BASE + entry_l2;
        let _ = self.mailbox.host_send(descriptor);
        self.trace(TraceEvent::MailboxSend {
            to_cluster: true,
            value: descriptor,
        });
        let _ = self.mailbox.cluster_recv();
        self.trace(TraceEvent::MailboxRecv {
            by_host: false,
            value: descriptor,
        });

        let team =
            self.cluster
                .run_team(map::L2SPM_BASE + entry_l2, args, num_cores, max_cycles)?;

        let _ = self.mailbox.cluster_send(0);
        self.trace(TraceEvent::MailboxSend {
            to_cluster: false,
            value: 0,
        });
        let _ = self.mailbox.host_recv();
        self.trace(TraceEvent::MailboxRecv {
            by_host: true,
            value: 0,
        });

        let team_soc = convert_freq(team.cycles, self.cfg.cluster.freq, self.cfg.host.soc_freq);
        self.stats.inc("offloads");
        if let Some(t) = &self.tracer {
            // The completion span covers the SoC-side overhead; the team's
            // own time already advanced the trace clock core by core.
            t.borrow_mut().record_span(
                Track::Soc,
                TraceEvent::OffloadEnd {
                    kernel: kernel.0 as u32,
                },
                overhead.get(),
            );
        }
        if self.timeline.is_some() {
            self.timeline_now += (overhead + team_soc).get();
            self.timeline_sample();
        }
        Ok(OffloadResult {
            total_soc_cycles: overhead + team_soc,
            overhead_cycles: overhead,
            team,
            code_loaded: loaded_now,
        })
    }

    /// Assembles `src` (see [`hulkv_rv::parse_program`]) and runs it on the
    /// host — the quickest way to script the SoC.
    ///
    /// # Errors
    ///
    /// Propagates assembly, loading and execution errors.
    ///
    /// # Example
    ///
    /// ```
    /// use hulkv::{HulkV, SocConfig};
    ///
    /// let mut soc = HulkV::new(SocConfig::default())?;
    /// soc.run_host_assembly("li a0, 40\naddi a0, a0, 2\nebreak\n")?;
    /// assert_eq!(soc.host().core().reg(hulkv_rv::Reg::A0), 42);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn run_host_assembly(&mut self, src: &str) -> Result<Cycles, SocError> {
        let words = hulkv_rv::parse_program(src, hulkv_rv::Xlen::Rv64)?;
        self.run_host_program(&words, |_| {}, 10_000_000_000)
    }

    /// Loads a host program at [`map::HOST_CODE`], applies `setup` to the
    /// core (arguments, stack), runs to `ebreak`, and returns the consumed
    /// host-core cycles.
    ///
    /// # Errors
    ///
    /// Propagates loading and execution errors.
    pub fn run_host_program(
        &mut self,
        words: &[u32],
        setup: impl FnOnce(&mut Core),
        max_cycles: u64,
    ) -> Result<Cycles, SocError> {
        self.host.load_program(map::HOST_CODE, words)?;
        let core = self.host.core_mut();
        core.set_pc(map::HOST_CODE);
        core.set_reg(Reg::Sp, map::L2SPM_BASE + self.cfg.l2spm_bytes as u64);
        setup(core);
        core.resume();
        if self.timeline.is_none() {
            return Ok(self.host.run(max_cycles)?);
        }
        self.run_host_sampled(max_cycles)
    }

    /// Window-by-window host run used when the timeline is enabled. The
    /// step sequence is exactly the one [`Host::run`] would execute — the
    /// run is only paused at sampling boundaries — so sampled and
    /// unsampled runs stay cycle-bit-identical.
    fn run_host_sampled(&mut self, max_cycles: u64) -> Result<Cycles, SocError> {
        let host_freq = self.cfg.host.freq;
        let soc_freq = self.cfg.host.soc_freq;
        let start = self.host.core().cycles().get();
        let limit = start.saturating_add(max_cycles);
        loop {
            // Convert the next due SoC-domain boundary to a host-core
            // cycle target, capped at the run budget (+1 so the overrun
            // that [`Host::run`] reports as Timeout is observable).
            let next_due = self.timeline.as_ref().map_or(u64::MAX, Timeline::next_due);
            let delta_soc = next_due.saturating_sub(self.timeline_now).max(1);
            let delta_host = convert_freq(Cycles::new(delta_soc), soc_freq, host_freq)
                .get()
                .max(1);
            let anchor = self.host.core().cycles().get();
            let target = anchor
                .saturating_add(delta_host)
                .min(limit.saturating_add(1));
            let halted = self.host.run_until_cycle(target)?;
            let now = self.host.core().cycles().get();
            self.timeline_now += convert_freq(Cycles::new(now - anchor), host_freq, soc_freq).get();
            if halted {
                self.timeline_sample();
                return Ok(Cycles::new(now - start));
            }
            if now > limit {
                return Err(RvError::Timeout {
                    cycles: now - start,
                }
                .into());
            }
            if self
                .timeline
                .as_ref()
                .is_some_and(|tl| tl.due(self.timeline_now))
            {
                self.timeline_sample();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemorySetup;
    use hulkv_rv::{Asm, Xlen};

    #[test]
    fn builds_all_memory_setups() {
        for setup in MemorySetup::ALL {
            let soc = HulkV::new(SocConfig::with_memory_setup(setup)).unwrap();
            assert_eq!(soc.config().main_memory_bytes(), 512 << 20);
        }
    }

    #[test]
    fn hulk_malloc_is_aligned_and_monotonic() {
        let mut soc = HulkV::new(SocConfig::default()).unwrap();
        let a = soc.hulk_malloc(100).unwrap();
        let b = soc.hulk_malloc(10).unwrap();
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 100);
        assert!(a >= map::SHARED_BASE);
        // The PMCA can address it.
        assert!(a < 1 << 32);
    }

    #[test]
    fn hulk_malloc_exhausts() {
        let mut soc = HulkV::new(SocConfig::default()).unwrap();
        let err = soc.hulk_malloc(600 << 20);
        assert!(matches!(err, Err(SocError::OutOfSharedMemory { .. })));
    }

    #[test]
    fn host_program_runs_from_dram() {
        let mut soc = HulkV::new(SocConfig::default()).unwrap();
        let mut a = Asm::new(Xlen::Rv64);
        a.li(Reg::A0, 21);
        a.add(Reg::A0, Reg::A0, Reg::A0);
        a.ebreak();
        soc.run_host_program(&a.assemble().unwrap(), |_| {}, 1_000_000)
            .unwrap();
        assert_eq!(soc.host().core().reg(Reg::A0), 42);
    }

    fn counting_loop(iters: i64) -> Vec<u32> {
        let mut a = Asm::new(Xlen::Rv64);
        a.li(Reg::A0, iters);
        a.li(Reg::A1, 0);
        let top = a.label();
        a.bind(top);
        a.addi(Reg::A1, Reg::A1, 1);
        a.addi(Reg::A0, Reg::A0, -1);
        a.bnez(Reg::A0, top);
        a.ebreak();
        a.assemble().unwrap()
    }

    #[test]
    fn timeline_samples_host_runs_window_by_window() {
        let mut soc = HulkV::new(SocConfig::default()).unwrap();
        soc.enable_timeline(200);
        soc.run_host_program(&counting_loop(2000), |_| {}, 10_000_000)
            .unwrap();
        let tl = soc.timeline().unwrap();
        assert!(tl.len() >= 3, "expected several windows, got {}", tl.len());
        let mut last_end = 0;
        let mut instret = 0;
        for w in tl.windows() {
            assert_eq!(w.start_cycle, last_end);
            assert!(w.end_cycle > w.start_cycle);
            last_end = w.end_cycle;
            instret += w.deltas.get("core.instret").copied().unwrap_or(0);
        }
        // The windows' deltas add up to the whole run.
        assert_eq!(instret, soc.host().core().instret());
        assert_eq!(last_end, soc.timeline_cycle());
    }

    #[test]
    fn timeline_sampling_is_cycle_neutral() {
        let run = |sampled: bool| {
            let mut soc = HulkV::new(SocConfig::default()).unwrap();
            if sampled {
                // An aggressive period maximizes chunking.
                soc.enable_timeline(64);
            }
            let cycles = soc
                .run_host_program(&counting_loop(3000), |_| {}, 10_000_000)
                .unwrap();
            let buf = soc.hulk_malloc(32).unwrap();
            let kernel = soc.register_kernel(&trivial_kernel()).unwrap();
            let off = soc
                .offload(kernel, &[(Reg::A0, buf)], 8, 1_000_000)
                .unwrap();
            (
                cycles,
                off.total_soc_cycles,
                soc.host().core().instret(),
                soc.metrics_snapshot().to_json().to_string(),
            )
        };
        let (c_on, o_on, i_on, snap_on) = run(true);
        let (c_off, o_off, i_off, snap_off) = run(false);
        assert_eq!(c_on, c_off, "sampling changed host cycles");
        assert_eq!(o_on, o_off, "sampling changed offload cycles");
        assert_eq!(i_on, i_off);
        assert_eq!(snap_on, snap_off, "sampling perturbed a block counter");
    }

    #[test]
    fn timeline_offload_closes_a_window() {
        let mut soc = HulkV::new(SocConfig::default()).unwrap();
        soc.enable_timeline(1_000_000);
        let buf = soc.hulk_malloc(32).unwrap();
        let kernel = soc.register_kernel(&trivial_kernel()).unwrap();
        let r = soc
            .offload(kernel, &[(Reg::A0, buf)], 8, 1_000_000)
            .unwrap();
        let tl = soc.take_timeline().unwrap();
        assert_eq!(tl.len(), 1);
        let w = &tl.windows()[0];
        assert_eq!(w.cycles(), r.total_soc_cycles.get());
        assert!(w.deltas.contains_key("cluster.instret"));
        // Detached: further runs don't sample.
        assert!(soc.timeline().is_none());
    }

    #[test]
    fn sampled_runs_still_time_out() {
        let mut soc = HulkV::new(SocConfig::default()).unwrap();
        soc.enable_timeline(100);
        let err = soc.run_host_program(&counting_loop(100_000), |_| {}, 1_000);
        assert!(matches!(err, Err(SocError::Exec(RvError::Timeout { .. }))));
    }

    fn trivial_kernel() -> Vec<u32> {
        let mut k = Asm::new(Xlen::Rv32);
        k.csrr(Reg::T0, hulkv_rv::csr::addr::MHARTID);
        k.slli(Reg::T1, Reg::T0, 2);
        k.add(Reg::T1, Reg::A0, Reg::T1);
        k.addi(Reg::T0, Reg::T0, 1);
        k.sw(Reg::T0, Reg::T1, 0);
        k.ebreak();
        k.assemble().unwrap()
    }

    #[test]
    fn offload_round_trip_writes_shared_buffer() {
        let mut soc = HulkV::new(SocConfig::default()).unwrap();
        let buf = soc.hulk_malloc(32).unwrap();
        let kernel = soc.register_kernel(&trivial_kernel()).unwrap();
        let r = soc
            .offload(kernel, &[(Reg::A0, buf)], 8, 1_000_000)
            .unwrap();
        assert!(r.code_loaded);
        for hart in 0..8u64 {
            let mut b = [0u8; 4];
            soc.read_mem(buf + hart * 4, &mut b).unwrap();
            assert_eq!(u32::from_le_bytes(b), hart as u32 + 1);
        }
    }

    #[test]
    fn lazy_code_load_amortizes() {
        let mut soc = HulkV::new(SocConfig::default()).unwrap();
        let buf = soc.hulk_malloc(32).unwrap();
        let kernel = soc.register_kernel(&trivial_kernel()).unwrap();
        let first = soc
            .offload(kernel, &[(Reg::A0, buf)], 8, 1_000_000)
            .unwrap();
        let second = soc
            .offload(kernel, &[(Reg::A0, buf)], 8, 1_000_000)
            .unwrap();
        assert!(first.code_loaded);
        assert!(!second.code_loaded);
        assert!(first.overhead_cycles > second.overhead_cycles);
        assert!(first.total_soc_cycles > second.total_soc_cycles);
        assert_eq!(soc.stats().get("kernel_loads"), 1);
        assert_eq!(soc.stats().get("offloads"), 2);

        // Evicting the kernel makes the next offload pay again.
        soc.evict_kernel(kernel);
        let third = soc
            .offload(kernel, &[(Reg::A0, buf)], 8, 1_000_000)
            .unwrap();
        assert!(third.code_loaded);
    }

    #[test]
    fn cluster_cannot_touch_the_clint() {
        let mut soc = HulkV::new(SocConfig::default()).unwrap();
        // Kernel that pokes the CLINT — the IOPMP must kill it.
        let mut k = Asm::new(Xlen::Rv32);
        k.li(Reg::T0, map::CLINT_BASE as i64);
        k.sw(Reg::Zero, Reg::T0, 0);
        k.ebreak();
        let kernel = soc.register_kernel(&k.assemble().unwrap()).unwrap();
        let err = soc.offload(kernel, &[], 1, 1_000_000);
        assert!(err.is_err());
    }

    #[test]
    fn llc_accelerates_host_dram_loop() {
        // Two passes over a 64 kB region: bigger than the 32 kB L1D (so the
        // second pass misses L1) but smaller than the 128 kB LLC (so it hits
        // there). Streaming with no reuse would not benefit from the LLC.
        let mut prog = Asm::new(Xlen::Rv64);
        prog.li(Reg::T3, 2); // passes
        let pass = prog.label();
        prog.bind(pass);
        prog.li(Reg::T0, (map::DRAM_BASE + 0x40_0000) as i64);
        prog.li(Reg::T2, 8192);
        let top = prog.label();
        prog.bind(top);
        prog.ld(Reg::T1, Reg::T0, 0);
        prog.addi(Reg::T0, Reg::T0, 8);
        prog.addi(Reg::T2, Reg::T2, -1);
        prog.bnez(Reg::T2, top);
        prog.addi(Reg::T3, Reg::T3, -1);
        prog.bnez(Reg::T3, pass);
        prog.ebreak();
        let words = prog.assemble().unwrap();

        let mut with_llc =
            HulkV::new(SocConfig::with_memory_setup(MemorySetup::HyperWithLlc)).unwrap();
        let c1 = with_llc
            .run_host_program(&words, |_| {}, 100_000_000)
            .unwrap();
        let mut without = HulkV::new(SocConfig::with_memory_setup(MemorySetup::HyperOnly)).unwrap();
        let c2 = without
            .run_host_program(&words, |_| {}, 100_000_000)
            .unwrap();
        // With write-allocated 64 B lines, the LLC turns most accesses into
        // hits; without it every L1 miss pays full HyperRAM latency.
        assert!(c2 > c1, "with LLC {c1}, without {c2}");
    }

    #[test]
    fn tracer_covers_host_cluster_dma_and_llc_tracks() {
        use hulkv_sim::{category, Tracer};

        let mut soc = HulkV::new(SocConfig::default()).unwrap();
        let tracer = Tracer::shared(1 << 16);
        tracer.borrow_mut().enable(category::ALL);
        soc.attach_tracer(tracer.clone());

        let buf = soc.hulk_malloc(32).unwrap();
        let kernel = soc.register_kernel(&trivial_kernel()).unwrap();
        soc.offload(kernel, &[(Reg::A0, buf)], 8, 1_000_000)
            .unwrap();
        // Touch DRAM from the host so the L1/LLC/DRAM path records too.
        let mut a = Asm::new(Xlen::Rv64);
        a.li(Reg::T0, (map::DRAM_BASE + 0x10_0000) as i64);
        a.ld(Reg::T1, Reg::T0, 0);
        a.ebreak();
        soc.run_host_program(&a.assemble().unwrap(), |_| {}, 1_000_000)
            .unwrap();

        let t = tracer.borrow();
        let tracks: std::collections::BTreeSet<u64> = t.events().map(|r| r.track.tid()).collect();
        for required in [
            Track::HostHart,
            Track::ClusterCore(0),
            Track::Dma,
            Track::Llc,
        ] {
            assert!(
                tracks.contains(&required.tid()),
                "missing track {:?} in {tracks:?}",
                required
            );
        }
        // Offload + mailbox events landed on the SoC track.
        let names: std::collections::BTreeSet<&str> = t.events().map(|r| r.event.name()).collect();
        for required in ["offload_begin", "offload", "mailbox_send", "mailbox_recv"] {
            assert!(names.contains(required), "missing {required} in {names:?}");
        }
    }

    #[test]
    fn metrics_snapshot_collects_every_block() {
        let mut soc = HulkV::new(SocConfig::default()).unwrap();
        let buf = soc.hulk_malloc(32).unwrap();
        let kernel = soc.register_kernel(&trivial_kernel()).unwrap();
        soc.offload(kernel, &[(Reg::A0, buf)], 8, 1_000_000)
            .unwrap();
        let snap = soc.metrics_snapshot();
        let names: Vec<&str> = snap.blocks.iter().map(|b| b.name()).collect();
        for required in ["soc", "core", "l1i", "l1d", "cluster", "udma", "hyperram"] {
            assert!(names.contains(&required), "missing {required} in {names:?}");
        }
        // The simulator's decode-cache counters ride along in the cluster
        // block (the offload above ran 8 cores through the fast path).
        let cluster_block = snap.blocks.iter().find(|b| b.name() == "cluster").unwrap();
        assert!(cluster_block.get("decode_hits") + cluster_block.get("decode_misses") > 0);
        // Round-trips through the JSON exporter.
        let parsed = MetricsSnapshot::parse(&snap.to_json().to_string()).unwrap();
        assert_eq!(parsed.blocks.len(), snap.blocks.len());
    }

    #[test]
    fn error_display_and_source() {
        let e = SocError::OutOfSharedMemory { requested: 64 };
        assert!(e.to_string().contains("64"));
        let e: SocError = SimError::UnmappedAddress { addr: 1 }.into();
        assert!(e.source().is_some());
    }
}
