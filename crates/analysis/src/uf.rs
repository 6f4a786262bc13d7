//! A small union-find (disjoint-set) structure used by the region/connection
//! analysis.

/// Union-find over `0..n` with path compression and union by size.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

#[allow(dead_code)] // len/is_empty/push are part of the container API, used in tests
impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Adds a new singleton element, returning its index.
    pub fn push(&mut self) -> usize {
        let i = self.parent.len();
        self.parent.push(i as u32);
        self.size.push(1);
        i
    }

    /// The representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] as usize != cur {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`; returns `true` if they were
    /// previously distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_union_find() {
        let mut uf = UnionFind::new(5);
        assert!(!uf.same(0, 1));
        assert!(uf.union(0, 1));
        assert!(uf.same(0, 1));
        assert!(!uf.union(1, 0));
        uf.union(2, 3);
        uf.union(1, 3);
        assert!(uf.same(0, 2));
        assert!(!uf.same(0, 4));
        assert_eq!(uf.len(), 5);
    }

    #[test]
    fn push_extends() {
        let mut uf = UnionFind::new(1);
        let i = uf.push();
        assert_eq!(i, 1);
        assert!(!uf.same(0, 1));
        uf.union(0, 1);
        assert!(uf.same(0, 1));
    }
}
