//! Compact fixed-size trace event records.
//!
//! An event is 24 bytes — a nanosecond timestamp relative to the sink's
//! epoch, a `u16` kind, and three `u32` payload slots — encoded into three
//! `u64` ring-buffer words:
//!
//! ```text
//! word 0: nanos
//! word 1: (kind as u64) << 32 | a
//! word 2: (c    as u64) << 32 | b
//! ```
//!
//! Payload slots are ids, never pointers: partition ids, worker indices,
//! ticket ids minted by [`TraceSink::next_id`](crate::TraceSink::next_id),
//! operation counts. Meaning is per-kind (documented on each variant);
//! unused slots are zero.

/// What happened. The numeric values are part of the on-ring encoding;
/// [`EventKind::from_u16`] rejects unknown values so a torn ring word decodes
/// to "skip" rather than garbage.
#[repr(u16)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// An engine run started. `a` = number of queries, `b` = worker count
    /// (1 for a run on the calling thread); `c` is unused.
    RunBegin = 1,
    /// The matching end of [`EventKind::RunBegin`] on the same thread, with
    /// the same `a` and `b`.
    RunEnd = 2,
    /// A partition visit started. `a` = partition id, `b` = operations in
    /// the partition's lanes at that moment (resident since earlier visits
    /// plus just arrived), `c` = queries with a non-empty lane.
    PartitionVisitBegin = 3,
    /// The matching end of [`EventKind::PartitionVisitBegin`].
    /// `a` = partition id, `b` = operations the visit consumed, `c` =
    /// operations it emitted to its own partition (straight onto a lane).
    /// `Begin.b − b + c` operations stay resident for the next visit.
    PartitionVisitEnd = 4,
    // Discriminant 5 is unassigned (it was the shared multi-kernel pass's
    // per-query event) and decodes to `None`; kinds are never renumbered.
    /// A query yielded the partition under the engine's yield policy.
    /// `a` = query index, `b` = partition id.
    Yield = 6,
    /// A worker claimed a partition from the run's runnable set — every
    /// visit starts here. `a` = partition id, `b` = worker index.
    Claim = 7,
    // Discriminant 8 is unassigned (it was the claim stolen from another
    // worker's runnable set, when each worker had one) and decodes to
    // `None`.
    /// A claimed partition's mailbox was drained into its lanes.
    /// `a` = partition id, `b` = operations that arrived (0 with nothing
    /// resident either = spurious wakeup, visit skipped), `c` = worker index.
    MailboxDrain = 9,
    /// A worker parked. `a` = worker index, `b` = 1 for an in-run idle wait
    /// (no runnable partition), 0 for a pool worker parking between runs.
    Park = 10,
    /// A parked worker woke. `a` = worker index, `b` as for
    /// [`EventKind::Park`].
    Unpark = 11,
    /// The persistent pool dispatched a run to its crew. `a` = dispatch
    /// generation (low 32 bits), `b` = active workers.
    PoolDispatch = 12,
    // Discriminant 13 is unassigned (it was the fetch of a run's storage
    // from the pool's recycle arena, when the pool kept one) and decodes to
    // `None`.
    /// A query entered the service. `a` = ticket id, `b` = kernel id,
    /// `c` = source vertex.
    Submit = 14,
    /// The submit was answered from the result cache (no ticket enters the
    /// queue). `a` = ticket id, `b` = kernel id.
    CacheHit = 15,
    /// The submit was admitted to the pending queue. `a` = ticket id,
    /// `b` = queue depth after admission.
    Enqueue = 16,
    /// The batcher formed a micro-batch. `a` = batch id, `b` = total
    /// queries, `c` = kernel cohorts in the batch.
    BatchBegin = 17,
    /// The batch's engine pass finished and demux begins. `a` = batch id.
    BatchEnd = 18,
    /// A pending ticket was drained into a batch. `a` = ticket id,
    /// `b` = batch id.
    JoinBatch = 19,
    /// A ticket was fulfilled (result, engine failure, or shutdown flush).
    /// `a` = ticket id, `b` = batch id (0 for a shutdown flush).
    Resolve = 20,
    // Discriminants 21 and 22 are unassigned (they were a reader's pin and
    // unpin of an epoch snapshot, when the graph store counted pins) and
    // decode to `None`.
    /// A new epoch was published by the writer. `a` = new epoch (low 32
    /// bits), `b` = partitions re-materialized, `c` = partitions shared with
    /// the previous epoch.
    EpochAdvance = 23,
    /// The writer folded a pending mutation log prefix into dirty-partition
    /// deltas (off the lock, concurrent with readers). `a` = mutations folded,
    /// `b` = dirty partitions, `c` = base epoch (low 32 bits).
    DeltaFold = 24,
    /// A partition visit streamed a **compressed** (delta/varint) adjacency
    /// payload instead of raw CSR slices. `a` = query id, `b` = partition id.
    PartitionDecode = 25,
}

impl EventKind {
    /// Decode a raw ring word kind; `None` for values this build does not
    /// know (future kinds, or a torn record read mid-overwrite).
    pub fn from_u16(raw: u16) -> Option<EventKind> {
        Some(match raw {
            1 => EventKind::RunBegin,
            2 => EventKind::RunEnd,
            3 => EventKind::PartitionVisitBegin,
            4 => EventKind::PartitionVisitEnd,
            6 => EventKind::Yield,
            7 => EventKind::Claim,
            9 => EventKind::MailboxDrain,
            10 => EventKind::Park,
            11 => EventKind::Unpark,
            12 => EventKind::PoolDispatch,
            14 => EventKind::Submit,
            15 => EventKind::CacheHit,
            16 => EventKind::Enqueue,
            17 => EventKind::BatchBegin,
            18 => EventKind::BatchEnd,
            19 => EventKind::JoinBatch,
            20 => EventKind::Resolve,
            23 => EventKind::EpochAdvance,
            24 => EventKind::DeltaFold,
            25 => EventKind::PartitionDecode,
            _ => return None,
        })
    }

    /// Short lowercase name used as the Chrome-trace slice/instant name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::RunBegin | EventKind::RunEnd => "run",
            EventKind::PartitionVisitBegin | EventKind::PartitionVisitEnd => "partition_visit",
            EventKind::Yield => "yield",
            EventKind::Claim => "claim",
            EventKind::MailboxDrain => "mailbox_drain",
            EventKind::Park => "park",
            EventKind::Unpark => "unpark",
            EventKind::PoolDispatch => "pool_dispatch",
            EventKind::Submit => "submit",
            EventKind::CacheHit => "cache_hit",
            EventKind::Enqueue => "enqueue",
            EventKind::BatchBegin | EventKind::BatchEnd => "batch",
            EventKind::JoinBatch => "join_batch",
            EventKind::Resolve => "resolve",
            EventKind::EpochAdvance => "epoch_advance",
            EventKind::DeltaFold => "delta_fold",
            EventKind::PartitionDecode => "partition_decode",
        }
    }
}

/// One decoded trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the owning [`TraceSink`](crate::TraceSink)'s epoch.
    pub nanos: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload slot (meaning per [`EventKind`]).
    pub a: u32,
    /// Second payload slot.
    pub b: u32,
    /// Third payload slot.
    pub c: u32,
}

impl TraceEvent {
    /// Encode into the three ring-buffer words.
    pub(crate) fn encode(&self) -> [u64; 3] {
        [
            self.nanos,
            ((self.kind as u16 as u64) << 32) | self.a as u64,
            ((self.c as u64) << 32) | self.b as u64,
        ]
    }

    /// Decode three ring-buffer words; `None` when the kind word is unknown
    /// (possible on a record torn by a concurrent overwrite).
    pub(crate) fn decode(words: [u64; 3]) -> Option<TraceEvent> {
        let kind = EventKind::from_u16((words[1] >> 32) as u16)?;
        Some(TraceEvent {
            nanos: words[0],
            kind,
            a: words[1] as u32,
            b: words[2] as u32,
            c: (words[2] >> 32) as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips() {
        let e = TraceEvent {
            nanos: 0xDEAD_BEEF_CAFE,
            kind: EventKind::Claim,
            a: u32::MAX,
            b: 7,
            c: 0x8000_0001,
        };
        assert_eq!(TraceEvent::decode(e.encode()), Some(e));
    }

    #[test]
    fn every_kind_round_trips_through_u16() {
        for raw in 0u16..64 {
            if let Some(kind) = EventKind::from_u16(raw) {
                assert_eq!(kind as u16, raw);
                assert!(!kind.name().is_empty());
            }
        }
        // The full kind set decodes.
        for kind in [
            EventKind::RunBegin,
            EventKind::RunEnd,
            EventKind::PartitionVisitBegin,
            EventKind::PartitionVisitEnd,
            EventKind::Yield,
            EventKind::Claim,
            EventKind::MailboxDrain,
            EventKind::Park,
            EventKind::Unpark,
            EventKind::PoolDispatch,
            EventKind::Submit,
            EventKind::CacheHit,
            EventKind::Enqueue,
            EventKind::BatchBegin,
            EventKind::BatchEnd,
            EventKind::JoinBatch,
            EventKind::Resolve,
            EventKind::EpochAdvance,
            EventKind::DeltaFold,
            EventKind::PartitionDecode,
        ] {
            assert_eq!(EventKind::from_u16(kind as u16), Some(kind));
        }
    }

    #[test]
    fn unknown_kinds_decode_to_none() {
        assert_eq!(EventKind::from_u16(0), None);
        assert_eq!(EventKind::from_u16(5), None, "retired, never reassigned");
        assert_eq!(EventKind::from_u16(8), None, "retired, never reassigned");
        assert_eq!(EventKind::from_u16(13), None, "retired, never reassigned");
        assert_eq!(EventKind::from_u16(21), None, "retired, never reassigned");
        assert_eq!(EventKind::from_u16(22), None, "retired, never reassigned");
        assert_eq!(EventKind::from_u16(26), None);
        assert_eq!(EventKind::from_u16(u16::MAX), None);
        assert_eq!(TraceEvent::decode([0, (26u64) << 32, 0]), None);
    }
}
