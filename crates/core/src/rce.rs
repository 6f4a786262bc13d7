//! Remote communication expressions — the paper's `(p, f, n, Dlist)` tuples.

use earth_ir::{FieldId, Label, VarId};
use std::fmt;
use std::sync::Arc;

/// A sorted, deduplicated, immutable set whose clones share one buffer:
/// tuples are copied into the placement set of every statement they pass,
/// and a copy costs a reference count, not an allocation.
#[derive(Clone, PartialEq, Eq)]
pub struct SharedSet<T>(Arc<[T]>);

impl<T: Copy + Ord> SharedSet<T> {
    /// The set holding just `x`.
    pub fn single(x: T) -> Self {
        SharedSet(Arc::new([x]))
    }

    /// The elements, in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.0.iter()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether `x` is in the set.
    pub fn contains(&self, x: &T) -> bool {
        self.0.binary_search(x).is_ok()
    }

    /// The union of both sets (shares `self`'s buffer when `other` adds
    /// nothing).
    pub fn union(&self, other: &Self) -> Self {
        if Arc::ptr_eq(&self.0, &other.0) || other.iter().all(|x| self.contains(x)) {
            return self.clone();
        }
        let mut v: Vec<T> = self.0.iter().chain(other.0.iter()).copied().collect();
        v.sort_unstable();
        v.dedup();
        SharedSet(v.into())
    }

    /// The elements satisfying `keep` (shares the buffer when all do).
    pub fn filtered(&self, mut keep: impl FnMut(&T) -> bool) -> Self {
        if self.0.iter().all(&mut keep) {
            return self.clone();
        }
        SharedSet(self.0.iter().copied().filter(|x| keep(x)).collect())
    }
}

impl<T> Default for SharedSet<T> {
    fn default() -> Self {
        SharedSet(Arc::default())
    }
}

impl<'a, T> IntoIterator for &'a SharedSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl<T: fmt::Debug> fmt::Debug for SharedSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.0.iter()).finish()
    }
}

/// A remote communication expression: field `field` of the object pointed
/// to by `base`, with an estimated dynamic frequency and the set of basic
/// statement labels (`Dlist`) whose accesses it covers.
///
/// For write tuples, `value_vars` records the variables holding the values
/// to be written; a tuple is killed when one of them is overwritten (the
/// paper keeps the original right-hand-side variables live by construction;
/// we track them explicitly).
#[derive(Debug, Clone, PartialEq)]
pub struct Rce {
    /// The pointer variable.
    pub base: VarId,
    /// The accessed field.
    pub field: FieldId,
    /// Estimated execution frequency (`n` in the paper): multiplied by the
    /// loop factor when hoisted out of loops, divided by the number of
    /// alternatives when hoisted out of conditionals.
    pub freq: f64,
    /// Labels of the original remote accesses this tuple covers.
    pub labels: SharedSet<Label>,
    /// For write tuples: variables holding values to be written.
    pub value_vars: SharedSet<VarId>,
    /// Whether the tuple crossed a conditional or loop boundary during
    /// propagation (placing it earlier may introduce a speculative
    /// dereference; see the paper's footnote 2).
    pub speculative: bool,
}

impl Rce {
    /// Creates a read tuple for a single access.
    pub fn read(base: VarId, field: FieldId, label: Label) -> Self {
        Rce {
            base,
            field,
            freq: 1.0,
            labels: SharedSet::single(label),
            value_vars: SharedSet::default(),
            speculative: false,
        }
    }

    /// Creates a write tuple for a single access.
    pub fn write(base: VarId, field: FieldId, label: Label, value: Option<VarId>) -> Self {
        Rce {
            value_vars: value.map(SharedSet::single).unwrap_or_default(),
            ..Rce::read(base, field, label)
        }
    }

    /// The `(base, field)` location key.
    pub fn key(&self) -> (VarId, FieldId) {
        (self.base, self.field)
    }
}

impl fmt::Display for Rce {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let labels: Vec<String> = self.labels.iter().map(|l| l.to_string()).collect();
        write!(
            f,
            "({}~>{}, {}, {{{}}})",
            self.base,
            self.field,
            self.freq,
            labels.join(",")
        )
    }
}

/// A set of [`Rce`] tuples, at most one per `(base, field)` key; adding a
/// tuple with an existing key merges frequencies (sum) and label sets
/// (union), as the paper's `addToSet` does.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommSet {
    items: Vec<Rce>,
}

impl CommSet {
    /// The empty set.
    pub fn new() -> Self {
        CommSet::default()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over the tuples.
    pub fn iter(&self) -> impl Iterator<Item = &Rce> {
        self.items.iter()
    }

    /// Looks up the tuple for `(base, field)`.
    pub fn get(&self, base: VarId, field: FieldId) -> Option<&Rce> {
        self.items.iter().find(|r| r.key() == (base, field))
    }

    /// Adds a tuple, merging with an existing tuple for the same location.
    pub fn add(&mut self, rce: Rce) {
        if let Some(existing) = self.items.iter_mut().find(|r| r.key() == rce.key()) {
            existing.freq += rce.freq;
            existing.labels = existing.labels.union(&rce.labels);
            existing.value_vars = existing.value_vars.union(&rce.value_vars);
            existing.speculative |= rce.speculative;
        } else {
            self.items.push(rce);
        }
    }

    /// Removes and returns all tuples (used when draining survivors).
    pub fn into_items(self) -> Vec<Rce> {
        self.items
    }

    /// Retains only tuples satisfying the predicate.
    pub fn retain(&mut self, f: impl FnMut(&Rce) -> bool) {
        self.items.retain(f);
    }
}

impl FromIterator<Rce> for CommSet {
    fn from_iter<T: IntoIterator<Item = Rce>>(iter: T) -> Self {
        let mut s = CommSet::new();
        for r in iter {
            s.add(r);
        }
        s
    }
}

impl Extend<Rce> for CommSet {
    fn extend<T: IntoIterator<Item = Rce>>(&mut self, iter: T) {
        for r in iter {
            self.add(r);
        }
    }
}

impl fmt::Display for CommSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.items.iter().map(|r| r.to_string()).collect();
        write!(f, "{{{}}}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u32) -> VarId {
        VarId(n)
    }
    fn fl(n: u32) -> FieldId {
        FieldId(n)
    }
    fn l(n: u32) -> Label {
        Label(n)
    }

    #[test]
    fn add_merges_same_location() {
        let mut s = CommSet::new();
        s.add(Rce::read(v(1), fl(0), l(10)));
        s.add(Rce::read(v(1), fl(0), l(20)));
        assert_eq!(s.len(), 1);
        let r = s.get(v(1), fl(0)).unwrap();
        assert_eq!(r.freq, 2.0);
        assert_eq!(r.labels.len(), 2);
    }

    #[test]
    fn distinct_locations_stay_separate() {
        let mut s = CommSet::new();
        s.add(Rce::read(v(1), fl(0), l(10)));
        s.add(Rce::read(v(1), fl(1), l(11)));
        s.add(Rce::read(v(2), fl(0), l(12)));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn write_tuples_track_value_vars() {
        let mut s = CommSet::new();
        s.add(Rce::write(v(1), fl(0), l(10), Some(v(5))));
        s.add(Rce::write(v(1), fl(0), l(11), Some(v(6))));
        let r = s.get(v(1), fl(0)).unwrap();
        assert!(r.value_vars.contains(&v(5)));
        assert!(r.value_vars.contains(&v(6)));
    }

    #[test]
    fn speculative_is_sticky() {
        let mut s = CommSet::new();
        s.add(Rce::read(v(1), fl(0), l(10)));
        s.add(Rce {
            speculative: true,
            ..Rce::read(v(1), fl(0), l(11))
        });
        assert!(s.get(v(1), fl(0)).unwrap().speculative);
    }

    #[test]
    fn display_is_readable() {
        let r = Rce::read(v(1), fl(2), l(7));
        assert_eq!(r.to_string(), "(v1~>field#2, 1, {S7})");
    }
}
