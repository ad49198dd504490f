//! Machine execution errors.

use std::fmt;

/// Errors raised by the simulated machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// The clause uses the `•` (sequential) ordering; SPMD machines only
    /// execute `//` clauses (the paper: "in the case of a sequential
    /// operator the expression translates to a sequential program").
    SequentialClause,
    /// A referenced array is missing from the environment.
    UnknownArray(String),
    /// The distributed machine timed out waiting for a message that never
    /// arrived (fault injection, or an inconsistent plan).
    MissingMessage {
        /// The waiting processor.
        node: i64,
        /// The read slot it was waiting on.
        array: String,
        /// The loop index whose operand was missing.
        index: i64,
    },
    /// The distributed machine timed out waiting for a planned packet
    /// — the lost unit is a whole run, so the
    /// diagnosis matches the wire protocol: which peer owed which run
    /// of which read slot.
    MissingPacket {
        /// The waiting processor.
        node: i64,
        /// The processor that owed the packet.
        peer: i64,
        /// The read slot the run belongs to.
        slot: usize,
        /// The run ordinal in the `(peer, node)` pair's run list.
        run: usize,
    },
    /// The NACK/retransmit budget was exhausted without recovering the
    /// missing data — the fault is not transient.
    Unrecoverable {
        /// The waiting processor.
        node: i64,
        /// The peer that never delivered.
        peer: i64,
        /// Retransmit requests sent before giving up.
        retries: u32,
    },
    /// A node thread panicked; the supervisor caught it, quiesced the
    /// remaining nodes, and restored the array state.
    NodePanicked {
        /// The processor whose thread panicked.
        node: i64,
    },
    /// A pipeline peer hung up before delivering everything it owed
    /// (DOACROSS predecessor exited early).
    PeerDisconnected {
        /// The waiting processor.
        node: i64,
        /// The peer that disconnected.
        peer: i64,
    },
    /// The plan and the supplied arrays disagree (extent or processor
    /// count mismatch).
    PlanMismatch(String),
    /// A transport-level failure on a real wire backend: handshake
    /// rejection (version mismatch), codec failure, a dead socket that
    /// outlived its reconnect budget, or a worker process that exited
    /// without delivering its result.
    Transport {
        /// The node whose link failed (-1 for the host/router itself).
        node: i64,
        /// Human-readable cause, including any version numbers.
        detail: String,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::SequentialClause => {
                write!(f, "SPMD machines execute `//` clauses only")
            }
            MachineError::UnknownArray(a) => write!(f, "unknown array `{a}`"),
            MachineError::MissingMessage { node, array, index } => write!(
                f,
                "node {node} timed out waiting for {array}[g({index})] — message lost"
            ),
            MachineError::MissingPacket {
                node,
                peer,
                slot,
                run,
            } => write!(
                f,
                "node {node} timed out waiting for packet (peer {peer}, slot {slot}, run {run}) \
                 — packet lost"
            ),
            MachineError::Unrecoverable {
                node,
                peer,
                retries,
            } => write!(
                f,
                "node {node} gave up on peer {peer} after {retries} retransmit requests \
                 — fault is not transient"
            ),
            MachineError::NodePanicked { node } => write!(
                f,
                "node {node} panicked during execution; remaining nodes quiesced, \
                 array state restored"
            ),
            MachineError::PeerDisconnected { node, peer } => write!(
                f,
                "node {node}'s pipeline peer {peer} hung up before delivering its \
                 boundary values"
            ),
            MachineError::PlanMismatch(m) => write!(f, "plan/array mismatch: {m}"),
            MachineError::Transport { node, detail } => {
                write!(f, "node {node} transport failure: {detail}")
            }
        }
    }
}

impl std::error::Error for MachineError {}
