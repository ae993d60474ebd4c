//! Operations: the ⟨query, vertex, value⟩ triples of Definition 2.3.

#[cfg(debug_assertions)]
use std::any::TypeId;
use std::mem::MaybeUninit;

use fg_graph::VertexId;

/// Scheduling priority of an operation. **Lower is better** (processed
/// earlier): for SSSP the priority is the tentative distance, for BFS the
/// level, for PPR a decreasing function of the residual.
pub type Priority = u64;

/// An operation of an FPP query: "apply `value` at `vertex` on behalf of
/// `query`".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Operation<V> {
    /// Index of the query within the FPP batch.
    pub query: u32,
    /// Target vertex (global id).
    pub vertex: VertexId,
    /// Kernel-specific payload (tentative distance, residual mass, …).
    pub value: V,
    /// Scheduling priority derived from `value` by the kernel's priority
    /// functor; lower values are processed first.
    pub priority: Priority,
}

impl<V> Operation<V> {
    /// Create an operation.
    pub fn new(query: u32, vertex: VertexId, value: V, priority: Priority) -> Self {
        Operation { query, vertex, value, priority }
    }
}

/// Private seal for [`ErasedPayload`]: only the two payload widths defined
/// in this module implement it.
mod payload_sealed {
    pub trait Sealed {}
}

/// Marker for the inline type-erased operation payloads of heterogeneous
/// multi-kernel runs ([`MultiValue8`] and [`MultiValue16`]). **Sealed** —
/// the set of widths is fixed here; external code only ever handles the
/// payloads opaquely (constructing and reading them is crate-internal, see
/// the soundness notes on the concrete types).
pub trait ErasedPayload: Copy + Send + Sync + 'static + payload_sealed::Sealed {}

/// Crate-internal operations on an erased payload: the unsafe inline
/// write/read pair plus the width constants. Kept off the public
/// [`ErasedPayload`] marker so no external code can construct a payload
/// with one type and read it with another — that seal (enforced one level
/// up by [`crate::dynkernel::MultiKernelHooks`]) is what makes the
/// release-build reads sound without a per-operation tag check; debug
/// builds additionally carry and verify a `TypeId` tag.
pub(crate) trait PayloadOps: ErasedPayload {
    /// Largest value size (bytes) this width can carry.
    const CAPACITY: usize;
    /// Largest value alignment this width can carry.
    const ALIGN: usize = 8;

    /// Whether values of type `V` fit this width.
    fn fits<V: 'static>() -> bool {
        std::mem::size_of::<V>() <= Self::CAPACITY && std::mem::align_of::<V>() <= Self::ALIGN
    }

    /// Erase `value` inline. Panics if `V` does not fit.
    fn new<V: Copy + Send + Sync + 'static>(value: V) -> Self;

    /// Recover the erased value (see the trait docs for the soundness
    /// argument; debug builds tag-check).
    fn get<V: Copy + Send + Sync + 'static>(&self) -> V;
}

/// 8-aligned inline byte storage. `MaybeUninit` because the bytes beyond
/// the stored value's size — and any padding *inside* the stored value —
/// are never initialised; the array must not be read as plain `u8`s. The
/// `repr(align(8))` is load-bearing: locals and fields of this type are
/// 8-aligned, which is what lets `new`/`get` cast the array pointer to any
/// `V` with align ≤ 8.
#[derive(Clone, Copy)]
#[repr(align(8))]
struct InlineBytes<const N: usize>([MaybeUninit<u8>; N]);

/// Defines one payload width: an opaque `Copy` struct of exactly `$cap`
/// inline bytes (plus a debug-only `TypeId` tag).
macro_rules! define_payload {
    ($(#[$doc:meta])* $name:ident, $cap:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy)]
        pub struct $name {
            bytes: InlineBytes<$cap>,
            /// Debug-only type tag; release builds rely on the hook seal.
            #[cfg(debug_assertions)]
            tag: TypeId,
        }

        impl $name {
            /// Largest value size (bytes) this payload can carry.
            pub const CAPACITY: usize = $cap;
            /// Largest value alignment this payload can carry.
            pub const ALIGN: usize = 8;

            /// Whether values of type `V` fit this payload.
            pub fn fits<V: 'static>() -> bool {
                Self::fits_layout(std::mem::size_of::<V>(), std::mem::align_of::<V>())
            }

            /// Whether a value with the given `(size, align)` layout fits.
            pub fn fits_layout(size: usize, align: usize) -> bool {
                size <= Self::CAPACITY && align <= Self::ALIGN
            }
        }

        impl payload_sealed::Sealed for $name {}
        impl ErasedPayload for $name {}

        impl PayloadOps for $name {
            const CAPACITY: usize = $cap;

            fn new<V: Copy + Send + Sync + 'static>(value: V) -> Self {
                assert!(
                    <Self as PayloadOps>::fits::<V>(),
                    "operation value type {} (size {}, align {}) exceeds the {}-byte \
                     multi-kernel inline payload",
                    std::any::type_name::<V>(),
                    std::mem::size_of::<V>(),
                    std::mem::align_of::<V>(),
                    $cap,
                );
                let mut bytes = InlineBytes([MaybeUninit::uninit(); $cap]);
                // SAFETY: `fits` guarantees size and alignment
                // (`InlineBytes` is `repr(align(8))`, so its first byte is
                // aligned for any `V` with align ≤ 8), and `V: Copy` means
                // the byte copy is a full semantic copy (no double-drop
                // hazard).
                unsafe { std::ptr::write(bytes.0.as_mut_ptr().cast::<V>(), value) };
                $name {
                    bytes,
                    #[cfg(debug_assertions)]
                    tag: TypeId::of::<V>(),
                }
            }

            fn get<V: Copy + Send + Sync + 'static>(&self) -> V {
                #[cfg(debug_assertions)]
                assert!(
                    self.tag == TypeId::of::<V>(),
                    "multi-kernel payload holds a different value type than {}",
                    std::any::type_name::<V>(),
                );
                // SAFETY: written by `new::<V>` (the sealed hook objects of
                // `crate::dynkernel` pair every group's writes and reads on
                // one concrete `V`; debug builds verify via the tag), at an
                // address aligned for `V`.
                unsafe { std::ptr::read(self.bytes.0.as_ptr().cast::<V>()) }
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                // The bytes are deliberately not printed: padding inside the
                // erased value may be uninitialised.
                f.debug_struct(stringify!($name)).finish_non_exhaustive()
            }
        }
    };
}

define_payload!(
    /// The **narrow** (8-byte) erased payload: covers SSSP (`u64`), BFS
    /// (`u32`), PPR (`f64`), and any other word-sized kernel value. A
    /// narrow-payload operation is exactly as large as a native `u64`-valued
    /// operation (24 bytes), so the most common service mixes pay no
    /// per-operation size penalty at all. `ForkGraphEngine::run_multi`
    /// (see `crate::engine`) picks this width automatically when every
    /// group's kernel fits it.
    MultiValue8,
    8
);

define_payload!(
    /// The **wide** (16-byte) erased payload: covers every built-in kernel
    /// (random walks' `WalkerBatch` and the k-hop exemplars' `(Dist, u32)`
    /// are 16 bytes) with operations of 32 bytes. Used whenever any group
    /// of a heterogeneous run needs more than [`MultiValue8`]; kernels with
    /// even larger values cannot join multi-kernel runs at all (they still
    /// run fine through the monomorphized single-kernel path, which has no
    /// size limit). The capacity is deliberately tight: a payload rides in
    /// **every** buffered operation of a mixed run, and measured mixed-run
    /// throughput tracks operation size almost linearly (lane pushes, heap
    /// sifts, and mailbox drains are memcpy-bound).
    MultiValue16,
    16
);

// The `cast::<V>()` round-trips above require the byte storage to sit at
// an 8-aligned address; fail loudly if a layout change ever breaks that.
const _: () = {
    assert!(std::mem::align_of::<InlineBytes<8>>() == 8);
    assert!(std::mem::align_of::<InlineBytes<16>>() == 8);
    assert!(std::mem::align_of::<MultiValue8>() >= 8);
    assert!(std::mem::align_of::<MultiValue16>() >= 8);
};

/// Heap entry ordering operations by `(priority, vertex)`, lowest first, for
/// use inside a `BinaryHeap<Reverse<…>>`-style min-queue.
#[derive(Clone, Copy, Debug)]
pub struct HeapEntry<V> {
    /// The wrapped operation.
    pub op: Operation<V>,
}

impl<V> PartialEq for HeapEntry<V> {
    fn eq(&self, other: &Self) -> bool {
        self.op.priority == other.op.priority && self.op.vertex == other.op.vertex
    }
}

impl<V> Eq for HeapEntry<V> {}

impl<V> PartialOrd for HeapEntry<V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<V> Ord for HeapEntry<V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse so that a max-heap (std BinaryHeap) pops the *smallest*
        // priority first.
        (other.op.priority, other.op.vertex).cmp(&(self.op.priority, self.op.vertex))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn construction() {
        let op = Operation::new(2, 7, 3.5f64, 10);
        assert_eq!(op.query, 2);
        assert_eq!(op.vertex, 7);
        assert_eq!(op.priority, 10);
    }

    #[test]
    fn heap_pops_lowest_priority_first() {
        let mut heap = BinaryHeap::new();
        for (v, p) in [(1u32, 30u64), (2, 10), (3, 20)] {
            heap.push(HeapEntry { op: Operation::new(0, v, (), p) });
        }
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|e| e.op.priority)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_on_vertex_id() {
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry { op: Operation::new(0, 9, (), 5) });
        heap.push(HeapEntry { op: Operation::new(0, 2, (), 5) });
        assert_eq!(heap.pop().unwrap().op.vertex, 2);
    }

    #[test]
    fn payloads_round_trip_every_builtin_value_shape() {
        let a = MultiValue8::new(42u64);
        assert_eq!(a.get::<u64>(), 42);
        let b = MultiValue8::new(7u32);
        assert_eq!(b.get::<u32>(), 7);
        let c = MultiValue8::new(0.125f64);
        assert_eq!(c.get::<f64>(), 0.125);
        let d = MultiValue16::new((9u64, 4u32)); // the k-hop exemplars' shape
        assert_eq!(d.get::<(u64, u32)>(), (9, 4));
        let e = MultiValue8::new(());
        e.get::<()>();
        // Narrow values ride the wide payload too (a ≤8-byte kernel joins a
        // wide run whenever any co-tenant needs 16 bytes).
        let f = MultiValue16::new(5u64);
        assert_eq!(f.get::<u64>(), 5);
        // Copies are independent, as the executor's buffers require.
        let copy = d;
        assert_eq!(copy.get::<(u64, u32)>(), (9, 4));
    }

    #[test]
    fn payloads_are_exactly_their_capacity_in_release() {
        // The whole point of the sealed, tag-free design: a release-build
        // payload is exactly the inline capacity, so a narrow-mix operation
        // is as small as a native `u64`-valued one.
        #[cfg(not(debug_assertions))]
        {
            assert_eq!(std::mem::size_of::<MultiValue8>(), MultiValue8::CAPACITY);
            assert_eq!(std::mem::size_of::<MultiValue16>(), MultiValue16::CAPACITY);
            assert_eq!(
                std::mem::size_of::<Operation<MultiValue8>>(),
                std::mem::size_of::<Operation<u64>>(),
            );
        }
        assert_eq!(std::mem::align_of::<MultiValue8>() % 8, 0);
        assert_eq!(std::mem::align_of::<MultiValue16>() % 8, 0);
    }

    #[test]
    fn payload_fits_reports_the_inline_limits() {
        assert!(MultiValue8::fits::<u64>());
        assert!(MultiValue8::fits::<u32>());
        assert!(!MultiValue8::fits::<(u64, u32)>(), "16 bytes exceeds the narrow capacity");
        assert!(MultiValue16::fits::<(u64, u32)>());
        assert!(MultiValue16::fits::<(u64, u64)>());
        assert!(!MultiValue16::fits::<[u64; 3]>(), "24 bytes exceeds the wide capacity");
        #[derive(Clone, Copy)]
        #[repr(align(16))]
        struct Overaligned(#[allow(dead_code)] u64);
        assert!(!MultiValue16::fits::<Overaligned>(), "align 16 exceeds the inline alignment");
        assert!(MultiValue16::fits_layout(MultiValue16::CAPACITY, MultiValue16::ALIGN));
        assert!(!MultiValue16::fits_layout(MultiValue16::CAPACITY + 1, 1));
        assert!(MultiValue8::fits_layout(8, 8));
        assert!(!MultiValue8::fits_layout(9, 8));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "different value type")]
    fn payload_get_refuses_the_wrong_type_in_debug() {
        MultiValue8::new(1u64).get::<u32>();
    }

    #[test]
    #[should_panic(expected = "exceeds the 16-byte multi-kernel inline payload")]
    fn payload_new_refuses_oversized_values() {
        MultiValue16::new([0u64; 4]);
    }
}
