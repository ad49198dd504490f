//! The one cost model: the paper's §4 run time as a price per unit of a
//! plan's census.
//!
//! ```text
//! T_node = iterations*t_iter + tests*t_test
//!        + packets*t_packet + bytes*t_byte + recv_elems*t_recv
//! T      = max over nodes
//! ```
//!
//! Every layout decision prices this way: `vcalc --advise` under the era
//! constants ([`CostModel::ERA`]), the autotuner under constants fit to
//! the host (`vcal_machine::perfmodel::fit`), and a machine's report
//! through the same fold (`vcal_machine::perfmodel::price_report`). A
//! plan's census is exact and costs O(packets) to read, so a price is a
//! few multiplications per node.

use crate::program::SpmdPlan;

/// Modeled header bytes of one packet (source + packet tag).
pub const PACK_HEADER_BYTES: u64 = 16;

/// Modeled wire bytes per packed element.
const ELEM_BYTES: u64 = 8;

/// Prices per census unit, in one time unit: the era constants count a
/// local iteration as 1, a fitted model counts nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// One executed iteration (evaluate + write).
    pub t_iter: f64,
    /// One run-time ownership test (naive schedules).
    pub t_test: f64,
    /// One packet's start-up (software overhead per send).
    pub t_packet: f64,
    /// One wire byte (inverse bandwidth).
    pub t_byte: f64,
    /// One received element (receive-side overhead).
    pub t_recv: f64,
}

/// What one node runs, tests, sends and receives.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCensus {
    /// Iterations executed.
    pub iterations: u64,
    /// Ownership tests that did not execute.
    pub tests: u64,
    /// Packets sent.
    pub packets: u64,
    /// Wire bytes sent.
    pub bytes: u64,
    /// Elements received.
    pub recv_elems: u64,
}

/// A priced plan or report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Price {
    /// Critical-path (slowest-node) time.
    pub total: f64,
    /// The slowest node.
    pub bottleneck: i64,
    /// Sum over nodes.
    pub aggregate: f64,
}

impl CostModel {
    /// The constants of the paper's era: a message start-up two orders
    /// of magnitude above an iteration, five units per hop for an
    /// eight-byte element.
    pub const ERA: CostModel = CostModel {
        t_iter: 1.0,
        t_test: 0.25,
        t_packet: 100.0,
        t_byte: 5.0 / ELEM_BYTES as f64,
        t_recv: 20.0,
    };

    /// Price per-node censuses, node `p` at position `p`.
    pub fn price(&self, nodes: impl IntoIterator<Item = NodeCensus>) -> Price {
        let mut out = Price::default();
        for (p, c) in nodes.into_iter().enumerate() {
            let t = c.iterations as f64 * self.t_iter
                + c.tests as f64 * self.t_test
                + c.packets as f64 * self.t_packet
                + c.bytes as f64 * self.t_byte
                + c.recv_elems as f64 * self.t_recv;
            out.aggregate += t;
            if t > out.total {
                out.total = t;
                out.bottleneck = p as i64;
            }
        }
        out
    }

    /// Price a plan from its census alone, without running it.
    pub fn price_plan(&self, plan: &SpmdPlan) -> Price {
        self.price(plan.nodes.iter().map(|node| {
            let schedule = &node.modify.schedule;
            let packets = node.comm.send_packets();
            NodeCensus {
                iterations: schedule.count(),
                tests: schedule.work_estimate().saturating_sub(schedule.count()),
                packets,
                bytes: packets * PACK_HEADER_BYTES + node.comm.send_elems() * ELEM_BYTES,
                recv_elems: node.comm.recv_elems(),
            }
        }))
    }
}
