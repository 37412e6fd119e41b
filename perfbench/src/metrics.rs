//! Metric names and units (the same lists as `BENCHMARK.json`), and the
//! outcome one workload pass produces.

use std::collections::BTreeMap;

use crate::trace::Span;

/// An end-to-end metric: what a user of the policy service sees.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("commit_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
];

/// End-to-end metrics every run prints but `BENCHMARK.json` does not
/// gate: their spread between runs on a shared 2-vCPU host (interquartile
/// range over median, ten seeds) went above the largest bound
/// `BENCHMARK.json` allows (0.25) in some workload's set. See the README.
pub const UNGATED: &[(&str, &str)] = &[
    ("commits_per_s", "1/s"),
    ("preview_p50_us", "us"),
    ("reads_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("replica_read_p50_us", "us"),
    ("commit_p99_us", "us"),
    ("open_loop_commit_p50_us", "us"),
    ("open_loop_commit_p99_us", "us"),
    ("reach_pass_ms", "ms"),
    ("lint_ms", "ms"),
    ("refine_ms", "ms"),
];

/// A per-layer metric, measured from outside the program by timing the
/// layer's public entry points on the workload's own inputs.
pub const LAYERS: &[(&str, &str)] = &[
    ("wire.codec_ns", "ns"),
    ("daemon.read_rtt_us", "us"),
    ("daemon.read_self_us", "us"),
    ("service.check_access_ns", "ns"),
    ("service.submit_us", "us"),
    ("group_commit.self_us", "us"),
    ("group_commit.cmds_per_epoch", "cmd/epoch"),
    ("monitor.check_access_ns", "ns"),
    ("monitor.session_pin_ns", "ns"),
    ("monitor.commit_us", "us"),
    ("monitor.revalidate_us", "us"),
    ("monitor.publish_fallbacks", "count"),
    ("monitor.admission_checks", "count"),
    ("monitor.admission_refusals", "count"),
    ("monitor.forced_deactivations", "count"),
    ("store.execute_batch_us", "us"),
    ("store.fsync_us", "us"),
    ("store.wal_bytes_per_cmd", "B/cmd"),
    ("store.compactions", "count"),
    ("core.authorize_ns", "ns"),
    ("core.snapshot_next_us", "us"),
    ("core.snapshot_next_rh_us", "us"),
    ("core.reach_probe_ns", "ns"),
    ("core.interval_us", "us"),
    ("core.admit_us", "us"),
    ("core.analyze_us", "us"),
    ("core.reach_query_ms", "ms"),
    ("core.slice_kept_ratio", "ratio"),
    ("core.lint_ms", "ms"),
    ("core.refinement_ms", "ms"),
    ("analysis.indefinite", "count"),
    ("replication.hook_us", "us"),
    ("replication.apply_us", "us"),
    ("replication.lag_epochs_p99", "epochs"),
    ("replication.delta_bytes_per_epoch", "B/epoch"),
];

/// The end-to-end metrics each workload's own pass reports; companion
/// passes supply the rest (see `run` in `main.rs`).
pub const OWNED: &[(&str, &[&str])] = &[
    (
        "embedded_reads",
        &[
            "setup_s",
            "reads_per_s",
            "read_p50_us",
            "read_p99_us",
            "open_loop_commit_p50_us",
            "open_loop_commit_p99_us",
            "peak_rss_mb",
        ],
    ),
    (
        "wire_mixed",
        &[
            "setup_s",
            "reads_per_s",
            "read_p50_us",
            "read_p99_us",
            "replica_read_p50_us",
            "commits_per_s",
            "commit_p50_us",
            "commit_p99_us",
            "peak_rss_mb",
        ],
    ),
    (
        "gated_admin",
        &[
            "setup_s",
            "commits_per_s",
            "commit_p50_us",
            "commit_p99_us",
            "preview_p50_us",
            "peak_rss_mb",
        ],
    ),
    (
        "analyses",
        &[
            "setup_s",
            "reach_pass_ms",
            "lint_ms",
            "refine_ms",
            "peak_rss_mb",
        ],
    ),
];

pub fn owned(workload: &str) -> &'static [&'static str] {
    OWNED
        .iter()
        .find(|(w, _)| *w == workload)
        .map_or(&[], |(_, names)| names)
}

pub type Values = BTreeMap<&'static str, f64>;

/// What one workload pass produced.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics this pass owns.
    pub e2e: Values,
    /// Per-layer metrics this pass owns (traced passes only).
    pub layers: Values,
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations that errored or answered wrongly.
    pub failed: u64,
    /// Whole-run checks that failed (durability, convergence, counts).
    pub problems: Vec<String>,
    /// Input properties, for later claims to cite.
    pub props: Vec<(String, String)>,
    /// Traced minus untraced value per end-to-end metric.
    pub overhead: Values,
    /// Spans recorded by the benchmark around its calls into each layer.
    pub spans: Vec<Span>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    pub fn prop(&mut self, key: &str, value: impl std::fmt::Display) {
        self.props.push((key.to_string(), value.to_string()));
    }

    /// Folds a companion pass in: its checks always count; its metrics
    /// only fill names this outcome does not already hold.
    pub fn absorb(&mut self, other: Outcome, label: &str) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems
            .extend(other.problems.into_iter().map(|p| format!("{label}: {p}")));
        for (k, v) in other.e2e {
            self.e2e.entry(k).or_insert(v);
        }
        for (k, v) in other.layers {
            self.layers.entry(k).or_insert(v);
        }
        self.spans.extend(other.spans);
        self.notes
            .extend(other.notes.into_iter().map(|n| format!("{label}: {n}")));
    }
}
