//! Dense slot maps that list the slots they fill, and a bounded free list
//! of emptied ones and the values they held.
//!
//! An arena's page map and a cache's chunk map hold one slot per page or
//! chunk of a whole address space, so a lookup is one index; yet a fault
//! plan fills a handful of slots. A [`ListedMap`] keeps, beside its slots,
//! the list of those it filled, so a copy or a drain walks only them, and
//! [`KeptMaps`] keeps emptied maps and their values for the next map a
//! thread builds and fills. A slot is filled only through this module and
//! emptied only by draining the whole map, which is what keeps the list
//! naming exactly the filled slots and a kept map empty.

/// A dense map of lazily filled slots that lists, in fill order, the
/// slots it has filled.
///
/// # Examples
///
/// ```
/// use dsnrep_simcore::listed::ListedMap;
///
/// let mut map = ListedMap::new(600);
/// *map.get_or_insert_with(512, || 1) += 1;
/// map.get_or_insert_with(7, || 5);
/// assert_eq!(map.filled(), [512, 7]);
/// assert_eq!(map.get(512), Some(&2));
/// assert_eq!(map.drain().collect::<Vec<_>>(), [2, 5]);
/// assert_eq!((map.len(), map.filled().len(), map.get(7)), (600, 0, None));
/// ```
#[derive(Debug)]
pub struct ListedMap<T> {
    slots: Vec<Option<T>>,
    filled: Vec<usize>,
}

impl<T> Default for ListedMap<T> {
    /// A map of no slots, which allocates nothing.
    fn default() -> Self {
        ListedMap {
            slots: Vec::new(),
            filled: Vec::new(),
        }
    }
}

/// Lists slot `at` and makes its value: the rare half of filling a slot.
#[cold]
fn fill<T>(filled: &mut Vec<usize>, at: usize, make: impl FnOnce() -> T) -> T {
    filled.push(at);
    make()
}

impl<T> ListedMap<T> {
    /// A map of `len` empty slots.
    pub fn new(len: usize) -> Self {
        let mut map = ListedMap::default();
        map.slots.resize_with(len, || None);
        map
    }

    /// Slots in the map, filled or not.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the map has no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The filled slots' indices, in the order they were filled.
    #[inline]
    pub fn filled(&self) -> &[usize] {
        &self.filled
    }

    /// Every slot, in index order.
    #[inline]
    pub fn slots(&self) -> &[Option<T>] {
        &self.slots
    }

    /// The value in slot `at`, if it is filled.
    ///
    /// # Panics
    ///
    /// Panics if `at` is not below [`len`](ListedMap::len), as do the
    /// other methods taking a slot index.
    #[inline]
    pub fn get(&self, at: usize) -> Option<&T> {
        self.slots[at].as_ref()
    }

    /// The value in slot `at`, if it is filled, to change in place.
    #[inline]
    pub fn get_mut(&mut self, at: usize) -> Option<&mut T> {
        self.slots[at].as_mut()
    }

    /// The value in slot `at`, filled with `make()` and listed if the
    /// slot was empty.
    #[inline]
    pub fn get_or_insert_with(&mut self, at: usize, make: impl FnOnce() -> T) -> &mut T {
        self.slot(at).get_or_insert_with(make)
    }

    /// Slot `at`, to fill.
    #[inline]
    pub fn slot(&mut self, at: usize) -> Slot<'_, T> {
        Slot {
            value: &mut self.slots[at],
            at,
            filled: &mut self.filled,
        }
    }

    /// The value in slot `from`, if it is filled, beside slot `to`, to
    /// fill: a copy from one slot into another.
    ///
    /// # Panics
    ///
    /// Panics if `from == to`.
    pub fn pair(&mut self, from: usize, to: usize) -> (Option<&T>, Slot<'_, T>) {
        assert_ne!(from, to, "a slot cannot be copied into itself");
        let (from_slot, to_slot) = if from < to {
            let (low, high) = self.slots.split_at_mut(to);
            (&low[from], &mut high[0])
        } else {
            let (low, high) = self.slots.split_at_mut(from);
            (&high[0], &mut low[to])
        };
        let to = Slot {
            value: to_slot,
            at: to,
            filled: &mut self.filled,
        };
        (from_slot.as_ref(), to)
    }

    /// Fills each slot `from` has filled, in its order, with `copy` of
    /// its value.
    ///
    /// # Panics
    ///
    /// Panics unless this map is as long as `from` and holds nothing.
    pub fn copy_from(&mut self, from: &ListedMap<T>, mut copy: impl FnMut(&T) -> T) {
        assert!(
            self.len() == from.len() && self.filled.is_empty(),
            "a map is copied into an empty map of its length"
        );
        for &at in &from.filled {
            self.slots[at] = from.slots[at].as_ref().map(&mut copy);
        }
        self.filled.extend_from_slice(&from.filled);
    }

    /// Empties every filled slot, yielding the values in fill order. The
    /// map keeps its length. Values the iterator has not yielded when it
    /// is dropped are dropped with it, so the map is empty afterwards
    /// however far it was read.
    pub fn drain(&mut self) -> Drain<'_, T> {
        Drain {
            slots: &mut self.slots,
            filled: self.filled.drain(..),
        }
    }
}

/// One slot of a [`ListedMap`], borrowed to be filled: filling it lists
/// it.
#[derive(Debug)]
pub struct Slot<'a, T> {
    value: &'a mut Option<T>,
    at: usize,
    filled: &'a mut Vec<usize>,
}

impl<'a, T> Slot<'a, T> {
    /// Whether the slot is filled.
    #[inline]
    pub fn is_filled(&self) -> bool {
        self.value.is_some()
    }

    /// The slot's value, filled with `make()` and listed if the slot was
    /// empty.
    #[inline]
    pub fn get_or_insert_with(self, make: impl FnOnce() -> T) -> &'a mut T {
        let Slot { value, at, filled } = self;
        value.get_or_insert_with(|| fill(filled, at, make))
    }
}

/// The values of a [`ListedMap`]'s filled slots, taken out in fill
/// order; see [`ListedMap::drain`].
#[derive(Debug)]
pub struct Drain<'a, T> {
    slots: &'a mut [Option<T>],
    filled: std::vec::Drain<'a, usize>,
}

impl<T> Iterator for Drain<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let at = self.filled.next()?;
        self.slots[at].take()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.filled.size_hint()
    }
}

impl<T> Drop for Drain<'_, T> {
    fn drop(&mut self) {
        self.for_each(drop);
    }
}

/// A bounded free list of emptied [`ListedMap`]s and of the values they
/// held, so a thread that builds and drops maps of the same few lengths,
/// filled with values of the same few sizes, stops taking either from
/// the heap. It keeps at most `keep` maps, none whose slots have room
/// for more than `longest`, and at most `keep_values` values, each in
/// the list of the class its `class` function names; a value of no class
/// is not kept. Both are reused last in, first out.
///
/// # Examples
///
/// ```
/// use dsnrep_simcore::listed::KeptMaps;
///
/// let mut kept = KeptMaps::new(4, 1024, 8, |_: &char| Some(0));
/// let mut map = kept.take_empty(521);
/// map.get_or_insert_with(3, || kept.take_value(Some(0)).unwrap_or('a'));
/// kept.give_back(map);
/// let map = kept.take_empty(521);
/// assert_eq!((map.len(), map.filled().len(), map.get(3)), (521, 0, None));
/// assert_eq!(kept.heap_maps(), 1, "the second map was the first, emptied");
/// assert_eq!(kept.take_value(Some(0)), Some('a'), "and its value was kept");
/// assert_eq!(kept.heap_values(), 1);
/// ```
#[derive(Debug)]
pub struct KeptMaps<T> {
    maps: Vec<ListedMap<T>>,
    keep: usize,
    longest: usize,
    heap: u64,
    /// Kept values, one list per class.
    values: Vec<Vec<T>>,
    kept_values: usize,
    keep_values: usize,
    class: fn(&T) -> Option<usize>,
    heap_values: u64,
}

impl<T> KeptMaps<T> {
    /// A free list that keeps at most `keep` maps of at most `longest`
    /// slots, and at most `keep_values` values, sorted by `class`.
    pub const fn new(
        keep: usize,
        longest: usize,
        keep_values: usize,
        class: fn(&T) -> Option<usize>,
    ) -> Self {
        KeptMaps {
            maps: Vec::new(),
            keep,
            longest,
            heap: 0,
            values: Vec::new(),
            kept_values: 0,
            keep_values,
            class,
            heap_values: 0,
        }
    }

    /// An empty map of `len` slots: a kept map of that length if there is
    /// one, else the last kept map resized, else a new one. A map whose
    /// slots had to come from the heap counts in
    /// [`heap_maps`](KeptMaps::heap_maps).
    pub fn take_empty(&mut self, len: usize) -> ListedMap<T> {
        let at = self.maps.iter().rposition(|map| map.len() == len);
        let mut map = at
            .or(self.maps.len().checked_sub(1))
            .map_or_else(ListedMap::default, |at| self.maps.swap_remove(at));
        if map.slots.capacity() < len {
            self.heap += 1;
            // Exactly `len`: amortized growth could leave a map of
            // `longest` slots with room for twice as many.
            map.slots.reserve_exact(len - map.slots.len());
        }
        map.slots.resize_with(len, || None);
        map
    }

    /// Empties `map`, keeping its values as
    /// [`keep_values`](KeptMaps::keep_values) does, and keeps it for a
    /// later [`take_empty`](KeptMaps::take_empty) if there is room and
    /// its slots fit; frees it otherwise.
    pub fn give_back(&mut self, mut map: ListedMap<T>) {
        self.keep_values(map.drain());
        if self.maps.len() < self.keep && map.slots.capacity() <= self.longest {
            self.maps.push(map);
        }
    }

    /// Maps [`take_empty`](KeptMaps::take_empty) has taken from the heap.
    pub fn heap_maps(&self) -> u64 {
        self.heap
    }

    /// The value of class `class` kept last, holding whatever it held
    /// when it was kept. `None` when no such value is kept, or `class` is
    /// `None`; the caller then makes one, and it counts in
    /// [`heap_values`](KeptMaps::heap_values).
    pub fn take_value(&mut self, class: Option<usize>) -> Option<T> {
        let value = class.and_then(|class| self.values.get_mut(class)?.pop());
        match value {
            Some(_) => self.kept_values -= 1,
            None => self.heap_values += 1,
        }
        value
    }

    /// Keeps the values `values` yields, in order, each in its class's
    /// list, until `keep_values` are kept. The drain drops the values of
    /// no class and every value past the bound.
    pub fn keep_values(&mut self, values: Drain<'_, T>) {
        for value in values {
            if self.kept_values == self.keep_values {
                return;
            }
            if let Some(class) = (self.class)(&value) {
                if self.values.len() <= class {
                    self.values.resize_with(class + 1, Vec::new);
                }
                self.values[class].push(value);
                self.kept_values += 1;
            }
        }
    }

    /// Values [`take_value`](KeptMaps::take_value) could not supply.
    pub fn heap_values(&self) -> u64 {
        self.heap_values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A map filled in any order lists its slots in that order, and a
    /// drain read part way, or not at all, still empties every slot.
    #[test]
    fn a_drain_empties_the_map_however_far_it_is_read() {
        for read in 0..=4 {
            let mut map = ListedMap::new(10);
            for at in [7, 2, 9, 0] {
                *map.get_or_insert_with(at, || at * 10) += 1;
            }
            *map.get_or_insert_with(2, || 0) += 1;
            let (from, to) = map.pair(9, 4);
            let from = *from.expect("slot 9 is filled");
            to.get_or_insert_with(|| from + 1);
            assert_eq!(map.filled(), [7, 2, 9, 0, 4]);
            assert_eq!(map.get(2), Some(&22));
            let mut copy = ListedMap::new(10);
            copy.copy_from(&map, |v| v + 100);
            assert_eq!(copy.filled(), map.filled());
            assert_eq!(copy.get(4), Some(&192));
            let got: Vec<usize> = map.drain().take(read).collect();
            assert_eq!(got, [71, 22, 91, 1][..read]);
            assert!(map.filled().is_empty());
            assert!(map.slots().iter().all(Option::is_none), "read {read}");
            assert_eq!(map.len(), 10);
        }
    }

    /// Kept maps come back empty, of the length asked for, and within
    /// the bounds: at most `keep` of them, none with room for more than
    /// `longest` slots, a resized one included.
    #[test]
    fn kept_maps_come_back_empty_and_bounded() {
        let mut kept = KeptMaps::new(2, 1024, 0, |_: &u8| None);
        let mut map = kept.take_empty(521);
        map.get_or_insert_with(520, || 1u8);
        kept.give_back(map);
        let map = kept.take_empty(657);
        assert_eq!((map.len(), kept.heap_maps()), (657, 2), "resized up");
        assert!(map.slots().iter().all(Option::is_none));
        assert!(map.slots.capacity() <= 1024, "{}", map.slots.capacity());
        kept.give_back(map);
        let map = kept.take_empty(300);
        assert_eq!((map.len(), kept.heap_maps()), (300, 2), "resized down");
        kept.give_back(map);
        kept.give_back(ListedMap::new(1025));
        for len in [1, 2, 3] {
            kept.give_back(ListedMap::new(len));
        }
        let lens: Vec<usize> = kept.maps.iter().map(ListedMap::len).collect();
        assert_eq!(lens, [300, 1], "two kept, the long one freed");
        let map = kept.take_empty(1);
        assert_eq!(
            (map.len(), kept.heap_maps()),
            (1, 2),
            "the same length first"
        );
    }

    /// Kept values come back last in, first out, from their own class's
    /// list, and within the bound: values of no class and values past
    /// `keep_values` are dropped, and every value a take cannot supply
    /// counts as taken from the heap.
    #[test]
    fn kept_values_come_back_by_class_and_bounded() {
        let mut kept = KeptMaps::new(2, 1024, 4, |v: &u32| {
            (*v < 300).then_some(*v as usize / 100)
        });
        let mut map = kept.take_empty(8);
        for (at, v) in [(5, 101), (1, 7), (2, 500), (6, 102)] {
            map.get_or_insert_with(at, || v);
        }
        kept.give_back(map);
        let mut map = kept.take_empty(8);
        for (at, v) in [(0, 8), (3, 9), (4, 103)] {
            map.get_or_insert_with(at, || v);
        }
        kept.keep_values(map.drain());
        assert!(
            map.slots().iter().all(Option::is_none),
            "the drain emptied the map"
        );
        assert_eq!(
            kept.values,
            [vec![7, 8], vec![101, 102]],
            "4 kept, 500 and 9 and 103 dropped"
        );
        let took: Vec<Option<u32>> = [Some(1), Some(0), Some(1), Some(1), Some(2), None]
            .into_iter()
            .map(|class| kept.take_value(class))
            .collect();
        assert_eq!(took, [Some(102), Some(8), Some(101), None, None, None]);
        assert_eq!((kept.heap_values(), kept.heap_maps()), (3, 1));
        kept.give_back(map);
        assert_eq!(kept.take_value(Some(0)), Some(7));
        assert_eq!(kept.take_value(Some(0)), None);
        assert_eq!(kept.heap_values(), 4);
    }
}
