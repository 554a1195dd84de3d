//! # bitpack — memory layout substrate for sharing-based sketches
//!
//! Every estimator in this workspace stores its state in one of two shapes:
//!
//! * a flat **bit array** (`B[1..M]` in the paper) — [`BitArray`] — with O(1)
//!   set/test and an exactly-maintained zero-bit count `m0`, which FreeBS
//!   reads on every update to form `q_B(t) = m0/M`;
//! * a flat array of **w-bit registers** (`R[1..M]`) — [`PackedArray`] —
//!   bit-packed so that 5-bit vHLL/FreeRS registers and 6-bit HLL++ registers
//!   cost exactly 5 or 6 bits per cell, as the paper's memory accounting
//!   assumes.
//!
//! [`AtomicBitArray`] and [`AtomicPackedArray`] are the shared variants
//! that the shards of `freesketch::ShardedSketch` update: one writer at a
//! time stores each word with a relaxed load and store (the shard's writer
//! lock serializes writers). Each keeps its exclusive twin's layout, so
//! its words equal the twin's after the same updates and a shared FreeRS
//! also costs exactly `w` bits per register. A register may straddle two
//! words, so registers are read only by the writer or while none runs
//! (see [`ConcurrentSlotStore::load`]).
//!
//! The [`SlotStore`] / [`ConcurrentSlotStore`] traits make the arrays
//! interchangeable behind one slot-update API — the storage seam the
//! generic `freesketch` estimator core is built on.
//!
//! ```
//! use bitpack::{BitArray, PackedArray};
//!
//! let mut b = BitArray::new(128);
//! assert_eq!(b.zeros(), 128);
//! assert!(b.set(17));      // freshly flipped
//! assert!(!b.set(17));     // second set is a no-op
//! assert_eq!(b.zeros(), 127);
//!
//! let mut r = PackedArray::new(64, 5);
//! r.store(3, 29);
//! assert_eq!(r.load(3), 29);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atomic;
mod atomic_packed;
mod bitarray;
mod packed;
mod slotstore;

pub use atomic::AtomicBitArray;
pub use atomic_packed::AtomicPackedArray;
pub use bitarray::BitArray;
pub use packed::PackedArray;
pub use slotstore::{ConcurrentSlotStore, SlotStore, WordStore};
