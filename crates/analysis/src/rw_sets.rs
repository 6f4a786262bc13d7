//! Hierarchical read/write sets.
//!
//! Every statement — basic *and* compound — is decorated with the set of
//! stack variables it reads/writes and the heap locations it may touch
//! (as `(base pointer variable, field)` pairs, where the base identifies a
//! region via the connection classes of [`crate::effects`]). This mirrors
//! the McCAT side-effect infrastructure the paper builds on: "Each basic
//! and compound statement is decorated with the set of locations
//! read/written."
//!
//! The sets of one function live in flat tables indexed by [`Label`]
//! (labels and [`VarId`]s are dense and function-local): one bit per
//! variable for the stack sets, and one shared arena of sorted,
//! deduplicated [`HeapAccess`] runs for the heap sets. A compound
//! statement's sets are the union of its children's, built once, bottom up.

use crate::effects::{Root, Summary};
use earth_ir::{
    Basic, Cond, FieldId, Function, Label, Operand, Place, Program, Rvalue, Stmt, StmtKind, VarId,
};
use std::collections::BTreeSet;
use std::fmt;

/// A single (possibly-remote) heap access within a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct HeapAccess {
    /// The pointer variable through which the access happens (for call
    /// effects, the actual argument at the call site).
    pub base: VarId,
    /// Accessed field; `None` for whole-struct accesses (block moves,
    /// whole-struct call effects).
    pub field: Option<FieldId>,
    /// `true` when the access is a *syntactic* dereference through `base`
    /// in this very statement (the paper's "direct" access, identified via
    /// anchor handles); `false` for accesses that happen inside callees or
    /// through copies.
    pub direct: bool,
}

/// A set of a function's variables, one bit per [`VarId`], borrowed from
/// its [`RwSets`] table. Iterates in ascending [`VarId`] order.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct VarSet<'a> {
    words: &'a [u64],
}

impl<'a> VarSet<'a> {
    /// Whether `v` is in the set (variables the table does not cover, such
    /// as ones added after the analysis ran, never are).
    pub fn contains(&self, v: &VarId) -> bool {
        let i = v.index();
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Whether the two sets share a variable.
    pub fn intersects(&self, other: &VarSet<'_>) -> bool {
        self.words.iter().zip(other.words).any(|(a, b)| a & b != 0)
    }

    /// The variables, in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = VarId> + 'a {
        let words = self.words;
        words.iter().enumerate().flat_map(|(i, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                (w != 0).then(|| {
                    let bit = w.trailing_zeros();
                    w &= w - 1;
                    VarId((i * 64) as u32 + bit)
                })
            })
        })
    }

    /// The raw bit words (bit `v % 64` of word `v / 64` is variable `v`).
    pub fn words(&self) -> &'a [u64] {
        self.words
    }
}

impl fmt::Debug for VarSet<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Read/write set of one statement (aggregated over its children for
/// compound statements), borrowed from its [`RwSets`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RwSet<'a> {
    /// Stack variables written (including call result destinations and
    /// atomic-write targets).
    pub vars_written: VarSet<'a>,
    /// Stack variables read.
    pub vars_read: VarSet<'a>,
    /// Heap locations possibly read, sorted and deduplicated.
    pub heap_reads: &'a [HeapAccess],
    /// Heap locations possibly written, sorted and deduplicated.
    pub heap_writes: &'a [HeapAccess],
}

/// Where one statement's sets live in the [`RwSets`] tables.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// `heap[reads..writes]` are the heap reads, `heap[writes..end]` the
    /// heap writes.
    reads: u32,
    writes: u32,
    end: u32,
}

/// Per-function table of read/write sets, dense-indexed by [`Label`].
#[derive(Debug, Clone)]
pub struct RwSets {
    /// `u64` words per variable set.
    words: usize,
    /// Per label: the written set's words, then the read set's.
    vars: Vec<u64>,
    /// Per label: the statement's heap runs, `None` for labels that are
    /// not in the analyzed body.
    entries: Vec<Option<Entry>>,
    /// The heap-access arena.
    heap: Vec<HeapAccess>,
}

impl RwSets {
    /// Computes read/write sets for every statement of `f`, using the
    /// callee `summaries` to expand call effects.
    pub fn compute(prog: &Program, f: &Function, summaries: &[Summary]) -> Self {
        let bound = f.label_bound();
        let words = f.vars().len().div_ceil(64);
        let mut b = Collector {
            prog,
            f,
            summaries,
            sets: RwSets {
                words,
                vars: vec![0; bound * 2 * words],
                entries: vec![None; bound],
                heap: Vec::new(),
            },
            reads: Vec::new(),
            writes: Vec::new(),
        };
        b.stmt(&f.body);
        b.sets
    }

    /// The read/write set of the statement labelled `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` does not belong to the analyzed function.
    pub fn get(&self, l: Label) -> RwSet<'_> {
        let e = self.entries[l.0 as usize].expect("label belongs to the analyzed function");
        let (w, r) = self.var_rows(l);
        RwSet {
            vars_written: VarSet { words: w },
            vars_read: VarSet { words: r },
            heap_reads: &self.heap[e.reads as usize..e.writes as usize],
            heap_writes: &self.heap[e.writes as usize..e.end as usize],
        }
    }

    /// Whether statement `l` writes variable `v` (directly).
    pub fn var_written(&self, v: VarId, l: Label) -> bool {
        self.get(l).vars_written.contains(&v)
    }

    fn var_rows(&self, l: Label) -> (&[u64], &[u64]) {
        let at = l.0 as usize * 2 * self.words;
        self.vars[at..at + 2 * self.words].split_at(self.words)
    }
}

/// Fills an [`RwSets`] table in one bottom-up pass.
struct Collector<'a> {
    prog: &'a Program,
    f: &'a Function,
    summaries: &'a [Summary],
    sets: RwSets,
    /// Scratch heap runs of the statement being finished.
    reads: Vec<HeapAccess>,
    writes: Vec<HeapAccess>,
}

impl Collector<'_> {
    fn row(&mut self, l: Label) -> &mut [u64] {
        let w = self.sets.words;
        let at = l.0 as usize * 2 * w;
        &mut self.sets.vars[at..at + 2 * w]
    }

    fn set(&mut self, l: Label, v: VarId, written: bool) {
        let w = self.sets.words;
        let i = v.index();
        let word = if written { i / 64 } else { w + i / 64 };
        self.row(l)[word] |= 1u64 << (i % 64);
    }

    fn read_var(&mut self, l: Label, o: Operand) {
        if let Operand::Var(v) = o {
            self.set(l, v, false);
        }
    }

    fn read_cond(&mut self, l: Label, c: &Cond) {
        for v in c.vars() {
            self.set(l, v, false);
        }
    }

    /// Computes `s` and its subtree, then records `s`.
    fn stmt(&mut self, s: &Stmt) {
        let l = s.label;
        match &s.kind {
            StmtKind::Basic(b) => self.basic(l, b),
            StmtKind::Seq(_) | StmtKind::ParSeq(_) => {}
            StmtKind::If { cond, .. }
            | StmtKind::While { cond, .. }
            | StmtKind::DoWhile { cond, .. }
            | StmtKind::Forall { cond, .. } => self.read_cond(l, cond),
            StmtKind::Switch { scrut, .. } => self.read_var(l, *scrut),
        }
        each_child(s, |c| self.stmt(c));
        // A compound statement's sets are the union of its children's.
        each_child(s, |c| self.absorb(l, c.label));
        self.finish(l);
    }

    /// Adds the recorded sets of `child` to `l`'s (bits directly, heap
    /// accesses to the scratch runs).
    fn absorb(&mut self, l: Label, child: Label) {
        let w = 2 * self.sets.words;
        let (at, to) = (child.0 as usize * w, l.0 as usize * w);
        for k in 0..w {
            let bits = self.sets.vars[at + k];
            self.sets.vars[to + k] |= bits;
        }
        let e = self.sets.entries[child.0 as usize].expect("child recorded");
        let heap = &self.sets.heap;
        self.reads
            .extend_from_slice(&heap[e.reads as usize..e.writes as usize]);
        self.writes
            .extend_from_slice(&heap[e.writes as usize..e.end as usize]);
    }

    /// Sorts and deduplicates the scratch runs and appends them to the
    /// arena as `l`'s heap sets.
    fn finish(&mut self, l: Label) {
        let mut reads = std::mem::take(&mut self.reads);
        let mut writes = std::mem::take(&mut self.writes);
        reads.sort_unstable();
        reads.dedup();
        writes.sort_unstable();
        writes.dedup();
        let heap = &mut self.sets.heap;
        let start = heap.len() as u32;
        heap.extend_from_slice(&reads);
        let mid = heap.len() as u32;
        heap.extend_from_slice(&writes);
        self.sets.entries[l.0 as usize] = Some(Entry {
            reads: start,
            writes: mid,
            end: heap.len() as u32,
        });
        reads.clear();
        writes.clear();
        self.reads = reads;
        self.writes = writes;
    }

    fn basic(&mut self, l: Label, b: &Basic) {
        for o in b.operands() {
            self.read_var(l, o);
        }
        match b {
            Basic::Assign { dst, src } => {
                match dst {
                    Place::Var(v) => self.set(l, *v, true),
                    Place::Mem(m) => {
                        self.set(l, m.base(), false);
                        if m.is_deref() {
                            self.writes.push(HeapAccess {
                                base: m.base(),
                                field: Some(m.field()),
                                direct: true,
                            });
                        } else {
                            // Local struct-variable field write: model as a
                            // write to the struct variable itself.
                            self.set(l, m.base(), true);
                        }
                    }
                }
                match src {
                    Rvalue::Load(m) => {
                        self.set(l, m.base(), false);
                        if m.is_deref() {
                            self.reads.push(HeapAccess {
                                base: m.base(),
                                field: Some(m.field()),
                                direct: true,
                            });
                        }
                    }
                    Rvalue::ValueOf(v) => self.set(l, *v, false),
                    _ => {}
                }
            }
            Basic::Call {
                dst,
                func,
                args,
                at,
            } => {
                if let Some(d) = dst {
                    self.set(l, *d, true);
                }
                if let Some(earth_ir::AtTarget::OwnerOf(p)) = at {
                    self.set(l, *p, false);
                }
                let (f, callee) = (self.f, self.prog.function(*func));
                let sum = &self.summaries[func.index()];
                let map_effects = |effects: &BTreeSet<(Root, Option<FieldId>)>,
                                   out: &mut Vec<HeapAccess>| {
                    for &(root, field) in effects {
                        if let Root::Param(i) = root {
                            if let Some(Operand::Var(a)) = args.get(i).copied() {
                                if callee.var(callee.params[i]).ty.is_ptr() && f.var(a).ty.is_ptr()
                                {
                                    out.push(HeapAccess {
                                        base: a,
                                        field,
                                        direct: false,
                                    });
                                }
                            }
                        }
                    }
                };
                map_effects(&sum.reads, &mut self.reads);
                map_effects(&sum.writes, &mut self.writes);
            }
            Basic::Return(_) => {}
            Basic::BlkMov { dir, ptr, buf, .. } => {
                self.set(l, *ptr, false);
                match dir {
                    earth_ir::BlkDir::RemoteToLocal => {
                        self.set(l, *buf, true);
                        self.reads.push(HeapAccess {
                            base: *ptr,
                            field: None,
                            direct: true,
                        });
                    }
                    earth_ir::BlkDir::LocalToRemote => {
                        self.set(l, *buf, false);
                        self.writes.push(HeapAccess {
                            base: *ptr,
                            field: None,
                            direct: true,
                        });
                    }
                }
            }
            Basic::AtomicWrite { var, .. } | Basic::AtomicAdd { var, .. } => {
                self.set(l, *var, true);
            }
        }
    }
}

/// Calls `f` on each direct child statement of `s`.
fn each_child(s: &Stmt, mut f: impl FnMut(&Stmt)) {
    match &s.kind {
        StmtKind::Basic(_) => {}
        StmtKind::Seq(ss) | StmtKind::ParSeq(ss) => ss.iter().for_each(f),
        StmtKind::If { then_s, else_s, .. } => {
            f(then_s);
            f(else_s);
        }
        StmtKind::Switch { cases, default, .. } => {
            for (_, c) in cases {
                f(c);
            }
            f(default);
        }
        StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => f(body),
        StmtKind::Forall {
            init, step, body, ..
        } => {
            f(init);
            f(step);
            f(body);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effects::analyze_effects;
    use earth_frontend::compile;

    fn setup(src: &str) -> (Program, RwSets, earth_ir::FuncId) {
        let prog = compile(src).unwrap();
        let (summaries, _) = analyze_effects(&prog);
        let fid = earth_ir::FuncId(0);
        let sets = RwSets::compute(&prog, prog.function(fid), &summaries);
        (prog, sets, fid)
    }

    #[test]
    fn basic_stmt_sets() {
        let (prog, sets, fid) = setup(
            r#"
            struct node { node* next; int v; };
            int f(node *p) {
                int t;
                t = p->v;
                p->v = t;
                return t;
            }
        "#,
        );
        let f = prog.function(fid);
        let stmts = f.basic_stmts();
        let p = f.var_by_name("p").unwrap();
        let t = f.var_by_name("t").unwrap();
        // t = p->v
        let (l0, _) = stmts[0];
        assert!(sets.var_written(t, l0));
        assert!(sets
            .get(l0)
            .heap_reads
            .iter()
            .any(|h| h.base == p && h.direct));
        // p->v = t
        let (l1, _) = stmts[1];
        assert!(sets.get(l1).heap_writes.iter().any(|h| h.base == p));
        assert!(sets.get(l1).vars_read.contains(&t));
    }

    #[test]
    fn loop_aggregates_body() {
        let (prog, sets, fid) = setup(
            r#"
            struct node { node* next; int v; };
            int f(node *p) {
                int acc;
                acc = 0;
                while (p != NULL) {
                    acc = acc + p->v;
                    p = p->next;
                }
                return acc;
            }
        "#,
        );
        let f = prog.function(fid);
        let p = f.var_by_name("p").unwrap();
        // Find the while statement's label.
        let mut while_label = None;
        f.body.walk(&mut |s| {
            if matches!(s.kind, StmtKind::While { .. }) {
                while_label = Some(s.label);
            }
        });
        let rw = sets.get(while_label.unwrap());
        assert!(rw.vars_written.contains(&p), "loop writes p");
        assert!(rw.heap_reads.iter().any(|h| h.base == p));
    }

    #[test]
    fn call_effects_mapped_to_args() {
        let (prog, sets, fid) = setup(
            r#"
            struct node { node* next; int v; };
            void caller(node *y) { poke(y); }
            void poke(node *x) { x->v = 1; }
        "#,
        );
        let f = prog.function(fid);
        let y = f.var_by_name("y").unwrap();
        let (l, _) = f.basic_stmts()[0];
        let rw = sets.get(l);
        assert!(
            rw.heap_writes
                .iter()
                .any(|h| h.base == y && h.field == Some(FieldId(1)) && !h.direct),
            "callee write should map to arg y: {rw:?}"
        );
    }

    #[test]
    fn atomic_ops_write_shared_var() {
        let (prog, sets, fid) = setup(
            r#"
            struct node { int v; };
            void f() {
                shared int c;
                addto(&c, 1);
            }
        "#,
        );
        let f = prog.function(fid);
        let c = f.var_by_name("c").unwrap();
        let (l, _) = f.basic_stmts()[0];
        assert!(sets.var_written(c, l));
    }
}
