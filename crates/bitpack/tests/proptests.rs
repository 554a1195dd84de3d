//! Property-based tests for bit arrays and packed registers.
#![allow(clippy::needless_range_loop)] // index-parallel model comparison reads clearer

use bitpack::{AtomicBitArray, BitArray, ConcurrentSlotStore, PackedArray, WordStore};
use proptest::prelude::*;

proptest! {
    /// The incrementally maintained zero count always equals a popcount scan,
    /// for arbitrary set sequences (with duplicates).
    #[test]
    fn zero_count_invariant(len in 1usize..2048, ops in prop::collection::vec(any::<usize>(), 0..500)) {
        let mut b = BitArray::new(len);
        for op in ops {
            b.set(op % len);
        }
        prop_assert_eq!(b.zeros(), b.recount_zeros());
        prop_assert_eq!(b.ones() + b.zeros(), len);
    }

    /// set() returns true exactly once per distinct index.
    #[test]
    fn set_returns_true_once(len in 1usize..1024, idx in prop::collection::vec(any::<usize>(), 1..200)) {
        let mut b = BitArray::new(len);
        let mut seen = std::collections::HashSet::new();
        for i in idx {
            let i = i % len;
            prop_assert_eq!(b.set(i), seen.insert(i));
        }
    }

    /// iter_ones round-trips the set of set bits.
    #[test]
    fn iter_ones_round_trip(len in 1usize..512, idx in prop::collection::vec(any::<usize>(), 0..100)) {
        let mut b = BitArray::new(len);
        let mut expected: Vec<usize> = idx.iter().map(|i| i % len).collect();
        expected.sort_unstable();
        expected.dedup();
        for &i in &expected {
            b.set(i);
        }
        let got: Vec<usize> = b.iter_ones().collect();
        prop_assert_eq!(got, expected);
    }

    /// Union is commutative and matches set-union semantics.
    #[test]
    fn union_semantics(len in 1usize..512,
                       xs in prop::collection::vec(any::<usize>(), 0..80),
                       ys in prop::collection::vec(any::<usize>(), 0..80)) {
        let mut a = BitArray::new(len);
        let mut b = BitArray::new(len);
        for x in &xs { a.set(x % len); }
        for y in &ys { b.set(y % len); }
        let mut ab = a.clone();
        ab.union_with(&b);
        let mut ba = b.clone();
        ba.union_with(&a);
        prop_assert_eq!(&ab, &ba);
        for i in 0..len {
            prop_assert_eq!(ab.get(i), a.get(i) || b.get(i));
        }
        prop_assert_eq!(ab.zeros(), ab.recount_zeros());
    }

    /// PackedArray store/load round-trips for every width 1..=16 and
    /// arbitrary in-range values, including straddling cells.
    #[test]
    fn packed_round_trip(width in 1u8..=16,
                         len in 1usize..300,
                         writes in prop::collection::vec((any::<usize>(), any::<u16>()), 0..200)) {
        let mut p = PackedArray::new(len, width);
        let mut model = vec![0u16; len];
        let maxv = p.max_value();
        for (i, v) in writes {
            let i = i % len;
            let v = (u32::from(v) % (u32::from(maxv) + 1)) as u16;
            p.store(i, v);
            model[i] = v;
        }
        for i in 0..len {
            prop_assert_eq!(p.load(i), model[i], "cell {} (width {})", i, width);
        }
        prop_assert_eq!(p.count_zeros(), model.iter().filter(|&&v| v == 0).count());
    }

    /// store_max matches a reference max-register model and reports growth
    /// correctly.
    #[test]
    fn packed_store_max_model(width in 2u8..=8,
                              len in 1usize..128,
                              writes in prop::collection::vec((any::<usize>(), any::<u16>()), 0..200)) {
        let mut p = PackedArray::new(len, width);
        let mut model = vec![0u16; len];
        let maxv = p.max_value();
        for (i, v) in writes {
            let i = i % len;
            let v = v % (maxv + 1);
            let grew = p.store_max(i, v);
            if v > model[i] {
                prop_assert_eq!(grew, Some(model[i]));
                model[i] = v;
            } else {
                prop_assert_eq!(grew, None);
            }
        }
        for i in 0..len {
            prop_assert_eq!(p.load(i), model[i]);
        }
    }

    /// sum_pow2_neg equals the naive sum within floating tolerance.
    #[test]
    fn packed_harmonic_sum(width in 2u8..=6,
                           len in 1usize..128,
                           writes in prop::collection::vec((any::<usize>(), any::<u16>()), 0..100)) {
        let mut p = PackedArray::new(len, width);
        let maxv = p.max_value();
        for (i, v) in writes {
            p.store_max(i % len, v % (maxv + 1));
        }
        let naive: f64 = p.iter().map(|v| 2f64.powi(-i32::from(v))).sum();
        prop_assert!((p.sum_pow2_neg() - naive).abs() < 1e-9);
    }

    /// merge_max is idempotent, commutative, and dominates both inputs.
    #[test]
    fn packed_merge_properties(len in 1usize..64,
                               xs in prop::collection::vec((any::<usize>(), 0u16..32), 0..60),
                               ys in prop::collection::vec((any::<usize>(), 0u16..32), 0..60)) {
        let mut a = PackedArray::new(len, 5);
        let mut b = PackedArray::new(len, 5);
        for (i, v) in &xs { a.store_max(i % len, *v); }
        for (i, v) in &ys { b.store_max(i % len, *v); }
        let mut ab = a.clone();
        ab.merge_max(&b);
        let mut ba = b.clone();
        ba.merge_max(&a);
        prop_assert_eq!(&ab, &ba);
        let mut again = ab.clone();
        again.merge_max(&b);
        prop_assert_eq!(&again, &ab);
        for i in 0..len {
            prop_assert!(ab.load(i) >= a.load(i));
            prop_assert!(ab.load(i) >= b.load(i));
        }
    }

    /// The atomic bit array's block update matches per-slot `try_update`
    /// on the same slots in order: grew flags, words and zero count,
    /// including slots repeated within the block and bits set before it.
    #[test]
    fn atomic_bits_update_block_matches_try_update(
        len in 1usize..1024,
        pre in prop::collection::vec(any::<usize>(), 0..100),
        idx in prop::collection::vec(any::<usize>(), 0..600),
    ) {
        let block = AtomicBitArray::new(len);
        let scalar = AtomicBitArray::new(len);
        for &i in &pre {
            block.set(i % len);
            scalar.set(i % len);
        }
        let slots: Vec<usize> = idx.iter().map(|i| i % len).collect();
        let values = vec![1u16; slots.len()];
        let mut grew = vec![false; slots.len()];
        let mut old = vec![0u16; slots.len()];
        block.update_block(&slots, &values, &mut grew, &mut old);
        for (i, &s) in slots.iter().enumerate() {
            let prev = ConcurrentSlotStore::try_update(&scalar, s, 1);
            prop_assert_eq!(grew[i], prev.is_some(), "update {}", i);
        }
        for w in 0..block.word_count() {
            prop_assert_eq!(WordStore::word(&block, w), WordStore::word(&scalar, w));
        }
        prop_assert_eq!(block.zeros(), scalar.zeros());
        prop_assert_eq!(block.zeros(), block.recount_zeros());
    }
}
