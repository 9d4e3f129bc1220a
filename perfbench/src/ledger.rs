//! The per-layer ledger a traced run emits. Every workload emits every
//! field; a layer the workload does not run reads 0 (for example
//! `netsim.*` in `endpoint_monitor`, which has no simulator), and the
//! README lists which layer each workload exercises.

use crate::report::Metrics;
use std::collections::BTreeMap;

/// This thread's `plab-obs` metrics, by name.
pub struct ObsSnapshot(BTreeMap<&'static str, plab_obs::metrics::MetricValue>);

impl ObsSnapshot {
    /// Snapshot the calling thread's metrics.
    pub fn take() -> ObsSnapshot {
        ObsSnapshot(plab_obs::metrics::snapshot().into_iter().collect())
    }

    /// Counter value (0 when never touched).
    pub fn counter(&self, name: &str) -> f64 {
        match self.0.get(name) {
            Some(plab_obs::metrics::MetricValue::Counter(c)) => *c as f64,
            _ => 0.0,
        }
    }

    /// Histogram observation count and sum (0 when never touched).
    pub fn histogram(&self, name: &str) -> (f64, f64) {
        match self.0.get(name) {
            Some(plab_obs::metrics::MetricValue::Histogram { count, sum, .. }) => {
                (*count as f64, *sum as f64)
            }
            _ => (0.0, 0.0),
        }
    }
}

/// Every per-layer metric, in emission order. Shares are fractions of
/// the measured loop's wall time.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub runner_handoffs_per_task: f64,
    pub runner_blocked_share: f64,
    pub runner_sched_busy_share: f64,
    pub runner_runqueue_wait_share: f64,
    pub runner_max_in_flight: f64,
    pub runner_unpinned_endpoints_per_s: f64,
    pub runner_unpinned_blocked_us_per_handoff: f64,
    pub controller_cpu_share: f64,
    pub controller_cmds_per_task: f64,
    pub controller_connects: f64,
    pub controller_timeouts: f64,
    pub controller_replays: f64,
    pub controller_failed_dials: f64,
    pub controller_suspended_waits: f64,
    pub crypto_verifies: f64,
    pub crypto_signs: f64,
    pub crypto_verify_us: f64,
    pub crypto_sign_us: f64,
    pub crypto_verify_chain_us: f64,
    pub crypto_share: f64,
    pub wire_msgs: f64,
    pub wire_encode_ns: f64,
    pub wire_decode_ns: f64,
    pub wire_share: f64,
    pub reactor_commands: f64,
    pub reactor_dispatched: f64,
    pub reactor_useful_ratio: f64,
    pub reactor_replay_hits: f64,
    pub reactor_sessions_rejected: f64,
    pub reactor_backpressure_stalls: f64,
    pub reactor_capture_packets: f64,
    pub reactor_capture_dropped: f64,
    pub reactor_denied_sends: f64,
    pub reactor_pump_us_per_cmd: f64,
    pub reactor_cmd_latency_us_p50: f64,
    pub pfvm_adjudications: f64,
    pub pfvm_insns_per_adj: f64,
    pub pfvm_fuse_builds: f64,
    pub pfvm_fuse_replays: f64,
    pub pfvm_dedup_hits: f64,
    pub pfvm_adj_ns_d1: f64,
    pub pfvm_adj_ns_d2: f64,
    pub pfvm_adj_ns_d4: f64,
    pub pfvm_adj_ns_seq_d1: f64,
    pub pfvm_adj_ns_seq_d4: f64,
    pub pfvm_instantiate_us: f64,
    pub pfvm_share: f64,
    pub cpf_compile_us: f64,
    pub netsim_link_enqueues: f64,
    pub netsim_link_bytes: f64,
    pub netsim_shard_windows: f64,
    pub netsim_shard_handoffs: f64,
    pub netsim_wheel_scans: f64,
    pub netsim_drops: f64,
    pub netsim_pool_cow_copies: f64,
    pub unattributed_share: f64,
    pub trace_overhead: f64,
    pub check_task_fail_ratio: f64,
    pub check_bw_error_pct_max: f64,
}

impl Ledger {
    /// Fill the counters the endpoint, PFVM and netsim layers keep in
    /// `plab-obs` on the calling thread.
    pub fn read_obs(&mut self, obs: &ObsSnapshot) {
        self.reactor_commands = obs.counter("endpoint.commands");
        self.reactor_dispatched = obs.counter("endpoint.reactor.dispatched");
        self.reactor_replay_hits = obs.counter("endpoint.replay.hits");
        let replay_misses = obs.counter("endpoint.replay.misses");
        self.reactor_sessions_rejected = obs.counter("endpoint.sessions.rejected");
        self.reactor_backpressure_stalls = obs.counter("endpoint.reactor.backpressure_stalls");
        self.reactor_capture_packets = obs.counter("endpoint.capture.packets");
        self.reactor_capture_dropped = obs.counter("endpoint.capture.dropped_packets");
        self.reactor_denied_sends = obs.counter("endpoint.denied_sends");
        // Useful: commands executed, less sends a monitor refused, over
        // every command the endpoint had to answer (replays included).
        let answered = self.reactor_commands + self.reactor_replay_hits + replay_misses;
        self.reactor_useful_ratio = if answered > 0.0 {
            (self.reactor_commands - self.reactor_denied_sends) / answered
        } else {
            0.0
        };
        self.pfvm_adjudications = obs.counter("pfvm.adjudications");
        let (fuel_n, fuel_sum) = obs.histogram("pfvm.fuel_per_adjudication");
        self.pfvm_insns_per_adj = if fuel_n > 0.0 { fuel_sum / fuel_n } else { 0.0 };
        self.pfvm_fuse_builds = obs.counter("pfvm.fuse.builds");
        self.pfvm_fuse_replays = obs.counter("pfvm.fuse.replays");
        self.pfvm_dedup_hits = obs.counter("pfvm.fuse.dedup_hits");
        let (enqueues, bytes) = obs.histogram("netsim.link.queued_bytes");
        self.netsim_link_enqueues = enqueues;
        self.netsim_link_bytes = bytes;
        self.netsim_shard_windows = obs.counter("netsim.shard.windows");
        self.netsim_shard_handoffs = obs.counter("netsim.shard.handoffs");
        self.netsim_wheel_scans = obs.histogram("netsim.wheel.buckets_scanned").1;
        self.netsim_drops = obs.counter("netsim.drops");
        self.netsim_pool_cow_copies = obs.counter("netsim.pool.cow_copies");
    }

    /// The scheduler thread's busy share not covered by the crypto,
    /// wire and PFVM estimates (runner, reactor, agent and netsim logic
    /// together), clamped at 0.
    pub fn settle_unattributed(&mut self) {
        self.unattributed_share =
            (self.runner_sched_busy_share - self.crypto_share - self.wire_share - self.pfvm_share)
                .max(0.0);
    }

    /// Emit every field under its metric name.
    pub fn emit(&self, m: &mut Metrics) {
        const C: &str = "count";
        const R: &str = "ratio";
        let rows: [(&'static str, &'static str, f64); 59] = [
            (
                "runner.handoffs_per_task",
                "1/task",
                self.runner_handoffs_per_task,
            ),
            ("runner.blocked_share", R, self.runner_blocked_share),
            ("runner.sched_busy_share", R, self.runner_sched_busy_share),
            (
                "runner.runqueue_wait_share",
                R,
                self.runner_runqueue_wait_share,
            ),
            ("runner.max_in_flight", C, self.runner_max_in_flight),
            (
                "runner.unpinned_endpoints_per_s",
                "1/s",
                self.runner_unpinned_endpoints_per_s,
            ),
            (
                "runner.unpinned_blocked_us_per_handoff",
                "us",
                self.runner_unpinned_blocked_us_per_handoff,
            ),
            ("controller.cpu_share", R, self.controller_cpu_share),
            ("controller.cmds_per_task", C, self.controller_cmds_per_task),
            ("controller.connects", C, self.controller_connects),
            ("controller.timeouts", C, self.controller_timeouts),
            ("controller.replays", C, self.controller_replays),
            ("controller.failed_dials", C, self.controller_failed_dials),
            (
                "controller.suspended_waits",
                C,
                self.controller_suspended_waits,
            ),
            ("crypto.verifies", C, self.crypto_verifies),
            ("crypto.signs", C, self.crypto_signs),
            ("crypto.verify_us", "us", self.crypto_verify_us),
            ("crypto.sign_us", "us", self.crypto_sign_us),
            ("crypto.verify_chain_us", "us", self.crypto_verify_chain_us),
            ("crypto.share", R, self.crypto_share),
            ("wire.msgs", C, self.wire_msgs),
            ("wire.encode_ns", "ns", self.wire_encode_ns),
            ("wire.decode_ns", "ns", self.wire_decode_ns),
            ("wire.share", R, self.wire_share),
            ("reactor.commands", C, self.reactor_commands),
            ("reactor.dispatched", C, self.reactor_dispatched),
            ("reactor.useful_ratio", R, self.reactor_useful_ratio),
            ("reactor.replay_hits", C, self.reactor_replay_hits),
            (
                "reactor.sessions_rejected",
                C,
                self.reactor_sessions_rejected,
            ),
            (
                "reactor.backpressure_stalls",
                C,
                self.reactor_backpressure_stalls,
            ),
            ("reactor.capture_packets", C, self.reactor_capture_packets),
            ("reactor.capture_dropped", C, self.reactor_capture_dropped),
            ("reactor.denied_sends", C, self.reactor_denied_sends),
            (
                "reactor.pump_us_per_cmd",
                "us",
                self.reactor_pump_us_per_cmd,
            ),
            (
                "reactor.cmd_latency_us_p50",
                "us",
                self.reactor_cmd_latency_us_p50,
            ),
            ("pfvm.adjudications", C, self.pfvm_adjudications),
            ("pfvm.insns_per_adj", C, self.pfvm_insns_per_adj),
            ("pfvm.fuse_builds", C, self.pfvm_fuse_builds),
            ("pfvm.fuse_replays", C, self.pfvm_fuse_replays),
            ("pfvm.dedup_hits", C, self.pfvm_dedup_hits),
            ("pfvm.adj_ns.d1", "ns", self.pfvm_adj_ns_d1),
            ("pfvm.adj_ns.d2", "ns", self.pfvm_adj_ns_d2),
            ("pfvm.adj_ns.d4", "ns", self.pfvm_adj_ns_d4),
            ("pfvm.adj_ns_seq.d1", "ns", self.pfvm_adj_ns_seq_d1),
            ("pfvm.adj_ns_seq.d4", "ns", self.pfvm_adj_ns_seq_d4),
            ("pfvm.instantiate_us", "us", self.pfvm_instantiate_us),
            ("pfvm.share", R, self.pfvm_share),
            ("cpf.compile_us", "us", self.cpf_compile_us),
            ("netsim.link_enqueues", C, self.netsim_link_enqueues),
            ("netsim.link_bytes", "bytes", self.netsim_link_bytes),
            ("netsim.shard_windows", C, self.netsim_shard_windows),
            ("netsim.shard_handoffs", C, self.netsim_shard_handoffs),
            ("netsim.wheel_scans", C, self.netsim_wheel_scans),
            ("netsim.drops", C, self.netsim_drops),
            ("netsim.pool_cow_copies", C, self.netsim_pool_cow_copies),
            ("unattributed.share", R, self.unattributed_share),
            ("trace.overhead", R, self.trace_overhead),
            ("check.task_fail_ratio", R, self.check_task_fail_ratio),
            ("check.bw_error_pct_max", "%", self.check_bw_error_pct_max),
        ];
        for (name, unit, value) in rows {
            m.put(name, unit, value);
        }
    }
}
