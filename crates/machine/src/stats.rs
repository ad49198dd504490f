//! Execution statistics collected by the simulated machines.

use std::ops::AddAssign;

/// Per-node counters for one clause execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Iterations the node actually executed (schedule visits).
    pub iterations: u64,
    /// Run-time ownership tests evaluated (naive schedules only).
    pub guard_tests: u64,
    /// Data-dependent guard evaluations.
    pub data_guards: u64,
    /// Elements sent to other nodes (payload values, independent of how
    /// they are batched onto the wire).
    pub msgs_sent: u64,
    /// Elements received from other nodes.
    pub msgs_received: u64,
    /// Values taken directly from local memory.
    pub local_reads: u64,
    /// Channel messages actually put on the wire: the number of planned
    /// packets (whole coalesced runs, grouped at plan time).
    pub packets_sent: u64,
    /// Modeled wire bytes sent: 8 bytes per payload element plus a
    /// fixed per-message header (see the distributed machine docs).
    pub bytes_sent: u64,
    /// Largest element count carried by a single wire message.
    pub max_packet_elems: u64,
    /// Packets this node re-sent in answer to NACKs (reliability
    /// traffic; not counted in `packets_sent`/`bytes_sent`).
    pub retransmits: u64,
    /// Duplicate packets suppressed by receive-side sequence tracking.
    pub dups_dropped: u64,
    /// Packets that arrived damaged by a `FaultPlan` corrupt fault,
    /// discarded and treated as losses.
    pub corrupt_detected: u64,
    /// Cumulative acknowledgements sent for accepted packets.
    pub acks_sent: u64,
    /// Retransmit requests sent while waiting on an owed value.
    pub nacks_sent: u64,
    /// Drains ended by their cap (`recv_timeout`) rather than by
    /// evidence that no peer can NACK this node again.
    pub drain_cap_expired: u64,
    /// Update-phase runs executed through the SIMD lane tier.
    pub simd_runs: u64,
    /// Update-phase runs executed element-at-a-time (boundary, strided,
    /// guarded, generic shape, or SIMD off).
    pub simd_fallback_runs: u64,
    /// Elements processed in full SIMD lane chunks.
    pub simd_lane_elems: u64,
    /// Remainder elements handled by scalar tail loops of vectorized
    /// runs.
    pub simd_tail_elems: u64,
    /// Widest lane width (f64 elements) used by any vectorized run.
    pub simd_lanes: u64,
}

impl NodeStats {
    /// `true` when no reliability machinery fired: no retransmits, no
    /// duplicates suppressed, no corruption detected, no NACKs sent.
    /// Every fault-free run must satisfy this (see
    /// `tests/stats_invariants.rs`).
    pub fn reliability_quiet(&self) -> bool {
        self.retransmits == 0
            && self.dups_dropped == 0
            && self.corrupt_detected == 0
            && self.nacks_sent == 0
    }
}

impl AddAssign for NodeStats {
    fn add_assign(&mut self, o: NodeStats) {
        self.iterations += o.iterations;
        self.guard_tests += o.guard_tests;
        self.data_guards += o.data_guards;
        self.msgs_sent += o.msgs_sent;
        self.msgs_received += o.msgs_received;
        self.local_reads += o.local_reads;
        self.packets_sent += o.packets_sent;
        self.bytes_sent += o.bytes_sent;
        self.max_packet_elems = self.max_packet_elems.max(o.max_packet_elems);
        self.retransmits += o.retransmits;
        self.dups_dropped += o.dups_dropped;
        self.corrupt_detected += o.corrupt_detected;
        self.acks_sent += o.acks_sent;
        self.nacks_sent += o.nacks_sent;
        self.drain_cap_expired += o.drain_cap_expired;
        self.simd_runs += o.simd_runs;
        self.simd_fallback_runs += o.simd_fallback_runs;
        self.simd_lane_elems += o.simd_lane_elems;
        self.simd_tail_elems += o.simd_tail_elems;
        self.simd_lanes = self.simd_lanes.max(o.simd_lanes);
    }
}

/// Whole-machine execution report.
#[derive(Debug, Clone, Default)]
pub struct ExecReport {
    /// Per-node statistics, indexed by processor id.
    pub nodes: Vec<NodeStats>,
    /// Barriers executed (shared-memory machine).
    pub barriers: u64,
    /// Traffic matrix `traffic[src][dst]` = elements sent per ordered
    /// pair (distributed machine only; empty otherwise). Price it with
    /// [`crate::topology::price_traffic`].
    pub traffic: Vec<Vec<u64>>,
    /// Runs served by the session plan cache (warm path). Zero for
    /// direct machine calls, which do not consult a cache.
    pub cache_hits: u64,
    /// Runs that had to build and prepare a fresh plan before executing.
    pub cache_misses: u64,
    /// Plan-cache entries evicted by budget pressure while this run
    /// inserted its plan (LRU retirement, not fingerprint invalidation).
    pub evictions: u64,
}

impl ExecReport {
    /// Sum of all node counters.
    pub fn total(&self) -> NodeStats {
        let mut t = NodeStats::default();
        for n in &self.nodes {
            t += *n;
        }
        t
    }

    /// Largest per-node iteration count — the critical-path work under
    /// perfect overlap.
    pub fn max_node_iterations(&self) -> u64 {
        self.nodes.iter().map(|n| n.iterations).max().unwrap_or(0)
    }

    /// `true` when no node recorded any reliability traffic
    /// (see [`NodeStats::reliability_quiet`]).
    pub fn reliability_quiet(&self) -> bool {
        self.nodes.iter().all(NodeStats::reliability_quiet)
    }

    /// Runtime SIMD census aggregated over all nodes — the executed-side
    /// counterpart of [`vcal_spmd::CompiledSchedule::simd_census`].
    pub fn simd_census(&self) -> vcal_spmd::SimdCensus {
        let t = self.total();
        vcal_spmd::SimdCensus {
            lanes: t.simd_lanes,
            vector_runs: t.simd_runs,
            fallback_runs: t.simd_fallback_runs,
            lane_elems: t.simd_lane_elems,
            tail_elems: t.simd_tail_elems,
        }
    }
}

/// Service-level counters of one `vcalc serve` response: what the
/// resident service's shared cache hierarchy and admission queue did
/// for (and around) one request. Travels on the serve wire protocol
/// and is surfaced by [`crate::serve::ServeClient`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Nanoseconds the request waited in the admission queue before a
    /// concurrency slot opened.
    pub queue_wait_ns: u64,
    /// Requests this service completed so far, this one included.
    pub sessions_served: u64,
    /// Shared plan-cache hits while serving this request.
    pub plan_hits: u64,
    /// Shared plan-cache misses (plans built) while serving this request.
    pub plan_misses: u64,
    /// Shared DAG-cache hits while serving this request.
    pub dag_hits: u64,
    /// Shared DAG-cache misses while serving this request.
    pub dag_misses: u64,
    /// Shared tune-cache hits while serving this request.
    pub tune_hits: u64,
    /// Shared tune-cache misses while serving this request.
    pub tune_misses: u64,
    /// Budget-pressure evictions across all shared tiers during this
    /// request.
    pub evictions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate() {
        let report = ExecReport {
            nodes: vec![
                NodeStats {
                    iterations: 3,
                    msgs_sent: 1,
                    ..Default::default()
                },
                NodeStats {
                    iterations: 5,
                    msgs_received: 1,
                    ..Default::default()
                },
            ],
            barriers: 1,
            ..Default::default()
        };
        let t = report.total();
        assert_eq!(t.iterations, 8);
        assert_eq!(t.msgs_sent, 1);
        assert_eq!(t.msgs_received, 1);
        assert_eq!(report.max_node_iterations(), 5);
    }
}
