//! Bounded FIFO queues.

use std::collections::VecDeque;

/// Error returned when a [`BoundedQueue`] rejects a push; carries the item
/// back to the caller (C-INTERMEDIATE — nothing is lost on failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull<T>(pub T);

/// A FIFO with a fixed capacity, the building block of every buffer in the
/// modelled system (port FIFOs, link input buffers, vault command queues).
///
/// # Examples
///
/// ```
/// use hmc_noc::BoundedQueue;
///
/// let mut q = BoundedQueue::new(2);
/// q.push(1).unwrap();
/// q.push(2).unwrap();
/// assert!(q.push(3).is_err());
/// assert_eq!(q.pop(), Some(1));
/// assert_eq!(q.free(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates an empty queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            items: VecDeque::new(),
            capacity,
        }
    }

    /// Current occupancy.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `true` when at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Remaining space.
    #[inline]
    pub fn free(&self) -> usize {
        self.capacity - self.items.len()
    }

    /// Appends an item.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] carrying the item if the queue is at capacity.
    pub fn push(&mut self, item: T) -> Result<(), QueueFull<T>> {
        if self.is_full() {
            return Err(QueueFull(item));
        }
        self.items.push_back(item);
        Ok(())
    }

    /// Removes and returns the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Borrows the oldest item.
    pub fn peek(&self) -> Option<&T> {
        self.items.front()
    }
}

/// A FIFO whose capacity is measured in *flits* rather than items, used
/// where buffer space is sized in link units (vault ingress buffers, link
/// egress buffers): a 9-flit read response takes nine times the space of a
/// 1-flit request.
///
/// # Examples
///
/// ```
/// use hmc_noc::FlitQueue;
///
/// let mut q = FlitQueue::new(10);
/// q.push(9, "big response").unwrap();
/// assert!(!q.can_accept(2));
/// q.push(1, "small request").unwrap();
/// assert_eq!(q.pop(), Some((9, "big response")));
/// assert!(q.can_accept(9) && !q.can_accept(10));
/// ```
#[derive(Debug, Clone)]
pub struct FlitQueue<T> {
    items: VecDeque<(u32, T)>,
    capacity_flits: u32,
    occupancy: u32,
}

impl<T> FlitQueue<T> {
    /// Creates an empty queue holding at most `capacity_flits` flits.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero.
    pub fn new(capacity_flits: u32) -> FlitQueue<T> {
        assert!(capacity_flits > 0, "queue capacity must be positive");
        FlitQueue {
            items: VecDeque::new(),
            capacity_flits,
            occupancy: 0,
        }
    }

    /// Number of queued items.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when no items are queued.
    ///
    /// Kept public beside `len`, as clippy's `len_without_is_empty` asks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `true` if `flits` more flits fit.
    #[inline]
    pub fn can_accept(&self, flits: u32) -> bool {
        self.occupancy + flits <= self.capacity_flits
    }

    /// Appends an item occupying `flits` flits.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] carrying the item if it does not fit.
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero.
    pub fn push(&mut self, flits: u32, item: T) -> Result<(), QueueFull<T>> {
        assert!(flits > 0, "items occupy at least one flit");
        if !self.can_accept(flits) {
            return Err(QueueFull(item));
        }
        self.occupancy += flits;
        self.items.push_back((flits, item));
        Ok(())
    }

    /// Removes and returns the oldest item with its flit count.
    pub fn pop(&mut self) -> Option<(u32, T)> {
        let (flits, item) = self.items.pop_front()?;
        self.occupancy -= flits;
        Some((flits, item))
    }

    /// Borrows the oldest item with its flit count.
    pub fn peek(&self) -> Option<(u32, &T)> {
        self.items.front().map(|(f, item)| (*f, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = BoundedQueue::new(3);
        for i in 0..3 {
            q.push(i).unwrap();
        }
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn rejects_when_full_and_returns_item() {
        let mut q = BoundedQueue::new(1);
        q.push("a").unwrap();
        let err = q.push("b").unwrap_err();
        assert_eq!(err.0, "b");
        assert!(q.is_full());
        assert_eq!(q.free(), 0);
    }

    #[test]
    fn peek_and_iter_do_not_consume() {
        let mut q = BoundedQueue::new(2);
        q.push(10).unwrap();
        q.push(20).unwrap();
        assert_eq!(q.peek(), Some(&10));
        assert_eq!(q.len(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = BoundedQueue::<u8>::new(0);
    }

    #[test]
    fn flit_queue_accounts_in_flits() {
        let mut q = FlitQueue::new(12);
        q.push(9, 'a').unwrap();
        q.push(3, 'b').unwrap();
        assert!(q.is_full_for(1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek(), Some((9, &'a')));
        assert_eq!(q.pop(), Some((9, 'a')));
        assert!(q.can_accept(9));
        assert!(q.is_full_for(10));
    }

    impl<T> FlitQueue<T> {
        fn is_full_for(&self, flits: u32) -> bool {
            !self.can_accept(flits)
        }
    }

    #[test]
    fn flit_queue_rejects_overflow_and_returns_item() {
        let mut q = FlitQueue::new(4);
        q.push(3, 1).unwrap();
        let err = q.push(2, 2).unwrap_err();
        assert_eq!(err.0, 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn flit_queue_rejects_zero_flit_items() {
        let mut q = FlitQueue::new(4);
        let _ = q.push(0, ());
    }
}
