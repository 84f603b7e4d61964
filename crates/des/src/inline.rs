//! [`InlineVec`]: a small-vector used as the reusable scratch buffer of
//! every per-event hot path, plus the thread-local allocation counters
//! that let the test suite *assert* the zero-allocation property.
//!
//! The simulator's service loops (`SwitchCore::service_into`, `LinkTx`
//! drains, the host's event relay, the device's fixpoint) produce short
//! bursts of outputs — usually zero to a handful, rarely more. Returning a
//! fresh `Vec` per call puts a heap round trip on every dispatched event.
//! An `InlineVec<T, N>` stores the first `N` elements inline (no heap);
//! only bursts beyond `N` **spill** into an internal `Vec`, and a spilled
//! buffer keeps its heap capacity across [`InlineVec::clear`] /
//! [`InlineVec::drain`], so a long-lived scratch buffer allocates at most
//! a bounded number of times over a whole run — independent of how many
//! events it carries.
//!
//! Every allocation made by any `InlineVec` (first spill or heap regrowth)
//! increments a thread-local counter. Each engine reads it before and
//! after its dispatch loop and charges the difference to itself, surfaced
//! as [`EngineStats::scratch_spills`](crate::EngineStats::scratch_spills):
//! a counter that grows with run *length* rather than with burst *shape*
//! is a hot-path allocation regression, and tier-1 tests fail on it.
//!
//! The implementation is `unsafe`-free (the crate forbids `unsafe`):
//! inline slots are `Option<T>`, which costs a discriminant per slot but
//! keeps the type available to every payload the simulator moves.

use std::cell::Cell;
use std::fmt;

thread_local! {
    /// Allocations performed by `InlineVec`s on this thread (first spill
    /// to heap or regrowth of a spilled buffer).
    static SPILL_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Total `InlineVec` heap allocations on this thread so far; engines
/// read it around each dispatch loop and report the summed deltas (see
/// [`EngineStats::scratch_spills`](crate::EngineStats::scratch_spills)).
pub fn spill_allocs() -> u64 {
    SPILL_ALLOCS.with(|c| c.get())
}

fn count_spill_alloc() {
    SPILL_ALLOCS.with(|c| c.set(c.get() + 1));
}

/// A vector storing its first `N` elements inline and spilling the rest
/// to the heap, tuned for reuse as a scratch buffer (see the
/// [module docs](self)).
///
/// # Examples
///
/// ```
/// use hmc_des::InlineVec;
///
/// let mut v: InlineVec<u32, 4> = InlineVec::new();
/// for i in 0..6 {
///     v.push(i); // 4 inline, 2 spilled
/// }
/// assert_eq!(v.len(), 6);
/// assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 5]);
/// let drained: Vec<u32> = v.drain().collect();
/// assert_eq!(drained, vec![0, 1, 2, 3, 4, 5]);
/// assert!(v.is_empty());
/// ```
pub struct InlineVec<T, const N: usize> {
    /// The first `min(len, N)` elements. `Option` instead of
    /// `MaybeUninit` keeps the crate free of `unsafe`.
    inline: [Option<T>; N],
    /// Elements `N..len`, in order. Keeps its capacity across
    /// [`InlineVec::clear`], so one spilled burst does not mean one
    /// allocation per subsequent burst.
    spill: Vec<T>,
    len: usize,
}

impl<T, const N: usize> InlineVec<T, N> {
    /// An empty vector. Allocation-free.
    pub fn new() -> InlineVec<T, N> {
        InlineVec {
            inline: std::array::from_fn(|_| None),
            spill: Vec::new(),
            len: 0,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no elements are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if elements live on the heap (the buffer spilled).
    #[inline]
    pub fn spilled(&self) -> bool {
        self.len > N
    }

    /// Appends an element.
    pub fn push(&mut self, value: T) {
        if self.len < N {
            self.inline[self.len] = Some(value);
        } else {
            if self.spill.len() == self.spill.capacity() {
                count_spill_alloc();
            }
            self.spill.push(value);
        }
        self.len += 1;
    }

    /// Removes and returns the last element.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        if self.len >= N {
            self.spill.pop()
        } else {
            self.inline[self.len].take()
        }
    }

    /// The element at `index`, if in bounds.
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            None
        } else if index < N {
            self.inline[index].as_ref()
        } else {
            self.spill.get(index - N)
        }
    }

    /// Removes every element. Spilled heap capacity is retained — the
    /// property that makes a reused scratch buffer allocation-free in
    /// steady state.
    pub fn clear(&mut self) {
        for slot in self.inline.iter_mut().take(self.len.min(N)) {
            *slot = None;
        }
        self.spill.clear();
        self.len = 0;
    }

    /// Iterates the elements in order. Allocation-free.
    pub fn iter(&self) -> Iter<'_, T, N> {
        Iter {
            vec: self,
            front: 0,
        }
    }

    /// Removes and yields every element in order. Dropping the iterator
    /// early drops the remaining elements; either way the vector is left
    /// empty with its spilled heap capacity retained. Allocation-free.
    pub fn drain(&mut self) -> Drain<'_, T, N> {
        // Spilled elements are yielded via `pop`; reversing once up front
        // turns pops into front-to-back order without moving out by index.
        self.spill.reverse();
        Drain {
            vec: self,
            front: 0,
        }
    }
}

impl<T, const N: usize> Default for InlineVec<T, N> {
    fn default() -> InlineVec<T, N> {
        InlineVec::new()
    }
}

impl<T, const N: usize> std::ops::Index<usize> for InlineVec<T, N> {
    type Output = T;
    fn index(&self, index: usize) -> &T {
        self.get(index)
            .unwrap_or_else(|| panic!("index {index} out of bounds (len {})", self.len))
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Clone, const N: usize> Clone for InlineVec<T, N> {
    fn clone(&self) -> InlineVec<T, N> {
        let mut out = InlineVec::new();
        for item in self.iter() {
            out.push(item.clone());
        }
        out
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<T, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;
    fn into_iter(mut self) -> Self::IntoIter {
        // As in `drain`: reversing the spill turns pops into front-to-back
        // order without per-element moves out of the middle.
        self.spill.reverse();
        IntoIter {
            vec: self,
            front: 0,
        }
    }
}

/// Owning iterator for [`InlineVec`].
pub struct IntoIter<T, const N: usize> {
    vec: InlineVec<T, N>,
    front: usize,
}

impl<T, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        if self.front >= self.vec.len {
            return None;
        }
        let i = self.front;
        self.front += 1;
        if i < N {
            self.vec.inline[i].take()
        } else {
            self.vec.spill.pop()
        }
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T, N>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Borrowing iterator for [`InlineVec`]; see [`InlineVec::iter`].
pub struct Iter<'a, T, const N: usize> {
    vec: &'a InlineVec<T, N>,
    front: usize,
}

impl<'a, T, const N: usize> Iterator for Iter<'a, T, N> {
    type Item = &'a T;
    fn next(&mut self) -> Option<&'a T> {
        let item = self.vec.get(self.front)?;
        self.front += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.vec.len - self.front.min(self.vec.len);
        (rest, Some(rest))
    }
}

impl<T, const N: usize> ExactSizeIterator for Iter<'_, T, N> {}

/// Draining iterator for [`InlineVec`]; see [`InlineVec::drain`].
///
/// The spill vec is reversed when the drain is created, so popping its
/// tail yields front-to-back order.
pub struct Drain<'a, T, const N: usize> {
    vec: &'a mut InlineVec<T, N>,
    front: usize,
}

impl<T, const N: usize> Iterator for Drain<'_, T, N> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        if self.front >= self.vec.len {
            return None;
        }
        let i = self.front;
        self.front += 1;
        if i < N {
            self.vec.inline[i].take()
        } else {
            self.vec.spill.pop()
        }
    }
}

impl<T, const N: usize> Drop for Drain<'_, T, N> {
    fn drop(&mut self) {
        self.vec.clear();
    }
}
