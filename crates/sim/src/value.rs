//! Runtime values and the global address space.

use std::fmt;

/// Identifies an EARTH node.
pub type NodeId = u16;

/// A global heap address: the owning node plus an object index within that
/// node's store. Field granularity is carried by the operations, not the
/// address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Addr {
    /// The node whose local memory holds the object.
    pub node: NodeId,
    /// Index into the node's object table.
    pub index: u32,
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}:{}", self.node, self.index)
    }
}

/// A dynamic value in the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Double(f64),
    /// Pointer to a heap object.
    Ptr(Addr),
    /// The null pointer.
    Null,
    /// Uninitialized memory / result of a speculative remote read of an
    /// invalid address. Using it in an operation is a runtime error.
    Uninit,
}

impl Value {
    /// Interprets the value as an integer.
    pub fn as_int(self) -> Result<i64, String> {
        match self {
            Value::Int(v) => Ok(v),
            Value::Double(v) => Ok(v as i64),
            other => Err(format!("expected int, got {other:?}")),
        }
    }

    /// Interprets the value as a double.
    pub fn as_double(self) -> Result<f64, String> {
        match self {
            Value::Double(v) => Ok(v),
            Value::Int(v) => Ok(v as f64),
            other => Err(format!("expected double, got {other:?}")),
        }
    }

    /// Interprets the value as a (possibly null) pointer.
    pub fn as_ptr(self) -> Result<Option<Addr>, String> {
        match self {
            Value::Ptr(a) => Ok(Some(a)),
            Value::Null => Ok(None),
            other => Err(format!("expected pointer, got {other:?}")),
        }
    }

    /// Truthiness for conditions.
    pub fn truthy(self) -> Result<bool, String> {
        match self {
            Value::Int(v) => Ok(v != 0),
            Value::Double(v) => Ok(v != 0.0),
            Value::Ptr(_) => Ok(true),
            Value::Null => Ok(false),
            Value::Uninit => Err("uninitialized value in condition".into()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Ptr(a) => write!(f, "{a}"),
            Value::Null => write!(f, "NULL"),
            Value::Uninit => write!(f, "<uninit>"),
        }
    }
}

fn out_of_range(index: u32, field: usize) -> String {
    format!("heap access out of range: obj {index} field {field}")
}

/// One object's extent in the node's word arena.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

/// One node's object store: a bump arena of words plus per-object spans.
/// Objects are fixed-size field arrays; indices are never reused (no GC —
/// simulations are bounded). The arena layout means a simulated `malloc`
/// is a bump, not a host allocation — node-heap traffic is the hottest
/// shared cost of both execution backends.
#[derive(Debug, Clone, Default)]
pub struct NodeHeap {
    words: Vec<Value>,
    spans: Vec<Span>,
}

impl NodeHeap {
    /// Allocates an object with `words` fields, all [`Value::Uninit`].
    pub fn alloc(&mut self, words: usize) -> u32 {
        let idx = self.spans.len() as u32;
        let start = self.words.len() as u32;
        self.words.resize(self.words.len() + words, Value::Uninit);
        self.spans.push(Span {
            start,
            len: words as u32,
        });
        idx
    }

    #[inline]
    fn span(&self, index: u32) -> Option<Span> {
        self.spans.get(index as usize).copied()
    }

    /// Field `field` of object `index`, or `None` when either is out of
    /// range.
    #[inline]
    pub fn get(&self, index: u32, field: usize) -> Option<Value> {
        match self.span(index) {
            Some(s) if field < s.len as usize => Some(self.words[s.start as usize + field]),
            _ => None,
        }
    }

    /// Mutable [`get`](Self::get).
    #[inline]
    pub fn get_mut(&mut self, index: u32, field: usize) -> Option<&mut Value> {
        match self.span(index) {
            Some(s) if field < s.len as usize => Some(&mut self.words[s.start as usize + field]),
            _ => None,
        }
    }

    /// Reads field `field` of object `index`.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range object or field indices.
    #[inline]
    pub fn load(&self, index: u32, field: usize) -> Result<Value, String> {
        self.get(index, field)
            .ok_or_else(|| out_of_range(index, field))
    }

    /// Writes field `field` of object `index`.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range object or field indices.
    #[inline]
    pub fn store(&mut self, index: u32, field: usize, v: Value) -> Result<(), String> {
        let slot = self
            .get_mut(index, field)
            .ok_or_else(|| out_of_range(index, field))?;
        *slot = v;
        Ok(())
    }

    /// Snapshot of all fields of an object (for block moves).
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range object index.
    pub fn load_all(&self, index: u32) -> Result<&[Value], String> {
        match self.span(index) {
            Some(s) => Ok(&self.words[s.start as usize..(s.start + s.len) as usize]),
            None => Err(format!("heap access out of range: obj {index}")),
        }
    }

    /// Snapshot of `len` fields starting at `off` (partial block moves).
    ///
    /// # Errors
    ///
    /// Returns an error when the range exceeds the object.
    pub fn load_range(&self, index: u32, off: usize, len: usize) -> Result<&[Value], String> {
        let obj = self.load_all(index)?;
        obj.get(off..off + len)
            .ok_or_else(|| format!("blkmov range [{off}, {}) exceeds object", off + len))
    }

    /// Overwrites `values.len()` fields starting at `off`.
    ///
    /// # Errors
    ///
    /// Returns an error when the range exceeds the object.
    pub fn store_range(&mut self, index: u32, off: usize, values: &[Value]) -> Result<(), String> {
        let s = self
            .span(index)
            .ok_or_else(|| format!("heap access out of range: obj {index}"))?;
        if off + values.len() > s.len as usize {
            return Err(format!(
                "blkmov range [{off}, {}) exceeds object",
                off + values.len()
            ));
        }
        let start = s.start as usize + off;
        self.words[start..start + values.len()].copy_from_slice(values);
        Ok(())
    }

    /// Overwrites all fields of an object (for block moves).
    ///
    /// # Errors
    ///
    /// Returns an error on index or size mismatch.
    pub fn store_all(&mut self, index: u32, values: &[Value]) -> Result<(), String> {
        let s = self
            .span(index)
            .ok_or_else(|| format!("heap access out of range: obj {index}"))?;
        if s.len as usize != values.len() {
            return Err(format!(
                "blkmov size mismatch: object has {} words, buffer {}",
                s.len,
                values.len()
            ));
        }
        let start = s.start as usize;
        self.words[start..start + values.len()].copy_from_slice(values);
        Ok(())
    }

    /// Frees every object, keeping the arena's capacity.
    pub fn clear(&mut self) {
        self.words.clear();
        self.spans.clear();
    }

    /// Number of objects allocated on this node.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing is allocated here.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_alloc_load_store() {
        let mut h = NodeHeap::default();
        let i = h.alloc(3);
        assert_eq!(h.load(i, 0).unwrap(), Value::Uninit);
        h.store(i, 1, Value::Int(42)).unwrap();
        assert_eq!(h.load(i, 1).unwrap(), Value::Int(42));
        assert!(h.load(i, 3).is_err());
        assert!(h.load(99, 0).is_err());
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn block_ops() {
        let mut h = NodeHeap::default();
        let i = h.alloc(2);
        h.store_all(i, &[Value::Int(1), Value::Int(2)]).unwrap();
        assert_eq!(h.load_all(i).unwrap(), &[Value::Int(1), Value::Int(2)]);
        assert!(h.store_all(i, &[Value::Int(1)]).is_err());
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::Int(3).as_double().unwrap(), 3.0);
        assert_eq!(Value::Double(2.5).as_int().unwrap(), 2);
        assert!(Value::Null.as_ptr().unwrap().is_none());
        assert!(Value::Null.as_int().is_err());
        assert!(!Value::Null.truthy().unwrap());
        assert!(Value::Ptr(Addr { node: 0, index: 0 }).truthy().unwrap());
        assert!(Value::Uninit.truthy().is_err());
    }
}
