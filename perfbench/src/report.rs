//! The metrics the benchmark prints, and how the per-layer ones are
//! derived from the traced reps' spans.

use crate::spans::{layer_self_ns, Span};
use crate::stats::median;
use crate::workloads::{call, layer};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s_p50", "s"),
    ("wall_s_tail", "s"),
    ("guest_mips", "MIPS"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Rep id of spans recorded during set-up.
pub const SETUP_REP: u32 = u32::MAX;

/// Per-layer metrics `(name, unit)`, printed by traced runs. A metric of a
/// call the workload does not make reads 0.
pub fn per_layer() -> Vec<(&'static str, &'static str)> {
    vec![
        ("soc.new_ms", "ms"),
        ("host.ns_per_host_cycle", "ns"),
        ("offload.us_p50", "us"),
        ("offload.pool_us_p50", "us"),
        ("cluster.ns_per_team_cycle", "ns"),
        ("dnn.us_per_tile", "us"),
        ("record.record_s", "s"),
        ("record.save_s", "s"),
        ("record.load_s", "s"),
        ("record.save_mb_per_s", "MB/s"),
        ("record.load_mb_per_s", "MB/s"),
        ("snap.restore_ms_p50", "ms"),
        ("sim.digest_ms", "ms"),
        ("replay.resume_s", "s"),
        ("self_ms.hulkv", "ms"),
        ("self_ms.hulkv-host", "ms"),
        ("self_ms.hulkv-mem", "ms"),
        ("self_ms.hulkv-cluster", "ms"),
        ("self_ms.hulkv-sim", "ms"),
        ("self_ms.unattributed", "ms"),
        ("trace.overhead_s", "s"),
        ("guest.instructions_per_rep", "count"),
        ("offload.team_cycles", "cycles"),
        ("offload.overhead_cycles", "cycles"),
        ("replay.checkpoints", "count"),
        ("replay.snapshot_bytes", "B"),
        ("llc.cacheable", "count"),
        ("llc.bypassed", "count"),
    ]
}

fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().filter(move |s| s.name == name)
}

/// Median duration of the spans named `name`, in nanoseconds (0 if none).
fn median_ns(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = named(spans, name).map(|s| s.duration_ns() as f64).collect();
    if d.is_empty() {
        0.0
    } else {
        median(&d)
    }
}

/// Total duration over total work of the spans named `name`, in
/// nanoseconds per unit of work (0 if none).
fn ns_per_work(spans: &[Span], name: &str) -> f64 {
    let (ns, work) = named(spans, name).fold((0u64, 0u64), |(ns, work), s| {
        (ns + s.duration_ns(), work + s.work)
    });
    if work == 0 {
        0.0
    } else {
        ns as f64 / work as f64
    }
}

/// MB/s of the spans named `name`, whose work is in bytes (0 if none).
fn mb_per_s(spans: &[Span], name: &str) -> f64 {
    let per_byte = ns_per_work(spans, name);
    if per_byte == 0.0 {
        0.0
    } else {
        1e3 / per_byte
    }
}

/// Derives the per-layer timings from the spans of traced reps and
/// set-ups. Self times are medians over the traced reps; the rep root's
/// own self time is the unattributed remainder.
pub fn layer_timings(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    m.insert("soc.new_ms", median_ns(spans, call::NEW) / 1e6);
    m.insert(
        "host.ns_per_host_cycle",
        ns_per_work(spans, call::RUN_ON_HOST),
    );
    m.insert(
        "offload.us_p50",
        median_ns(spans, call::OFFLOAD_SHORT) / 1e3,
    );
    m.insert(
        "offload.pool_us_p50",
        median_ns(spans, call::OFFLOAD_POOL) / 1e3,
    );
    m.insert(
        "cluster.ns_per_team_cycle",
        ns_per_work(spans, call::OFFLOAD_MATMUL),
    );
    m.insert(
        "dnn.us_per_tile",
        ns_per_work(spans, call::TILED_CONV) / 1e3,
    );
    m.insert("record.record_s", median_ns(spans, call::RECORD) / 1e9);
    m.insert("record.save_s", median_ns(spans, call::SAVE) / 1e9);
    m.insert("record.load_s", median_ns(spans, call::LOAD) / 1e9);
    m.insert("record.save_mb_per_s", mb_per_s(spans, call::SAVE));
    m.insert("record.load_mb_per_s", mb_per_s(spans, call::LOAD));
    m.insert("snap.restore_ms_p50", median_ns(spans, call::RESTORE) / 1e6);
    m.insert("sim.digest_ms", median_ns(spans, call::DIGEST) / 1e6);
    m.insert("replay.resume_s", median_ns(spans, call::RESUME) / 1e9);

    let per_rep = layer_self_ns(spans);
    let reps: Vec<_> = per_rep
        .iter()
        .filter(|(&rep, _)| rep != SETUP_REP)
        .map(|(_, layers)| layers)
        .collect();
    let self_ms = |l: &str| {
        let v: Vec<f64> = reps
            .iter()
            .map(|layers| layers.get(l).copied().unwrap_or(0) as f64 / 1e6)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    for (metric, l) in [
        ("self_ms.hulkv", layer::SOC),
        ("self_ms.hulkv-host", layer::HOST),
        ("self_ms.hulkv-mem", layer::MEM),
        ("self_ms.hulkv-cluster", layer::CLUSTER),
        ("self_ms.hulkv-sim", layer::SIM),
        ("self_ms.unattributed", layer::BENCH),
    ] {
        m.insert(metric, self_ms(l));
    }
    m
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`, each metric as `{"value": v, "unit": u}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Non-finite values are not JSON; they never occur for a run that
        // completed a rep, and print as 0 otherwise.
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}
