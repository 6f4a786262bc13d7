//! The `earth-exec` execution subsystem: backend-shared accounting plus
//! the pre-decoded, closure-compiled native tier.
//!
//! Two backends execute the same [`CompiledProgram`]s:
//!
//! * **interp** — [`Machine`], the original op-at-a-time
//!   interpreter; the semantic reference.
//! * **native** — [`NativeMachine`] running a [`NativeProgram`]: a
//!   pre-decoding pass resolves every jump target, field offset, and
//!   operand slot into a flat step table, bakes per-op costs in, elides
//!   provably-unneeded readiness checks, and fuses common adjacent op
//!   pairs into single dispatches.
//!
//! Both produce cycle- and byte-identical [`RunResult`]s (including
//! [`SiteTrace`](crate::SiteTrace) PGO counters and stall accounting)
//! because all outcome-determining state lives in the shared
//! `account` layer and every native handler replicates the
//! interpreter's micro-op ordering. The differential suites
//! (`tests/prop_exec.rs`, `tests/exec_sweep.rs`) enforce the contract.

pub(crate) mod account;
mod native;
mod predecode;

pub use native::NativeMachine;
pub use predecode::NativeProgram;

use crate::bytecode::CompiledProgram;
use crate::machine::{Machine, MachineConfig, RunResult, SimError};
use crate::value::Value;
use earth_ir::FuncId;
use std::fmt;
use std::str::FromStr;

/// Which execution engine runs the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// The op-at-a-time interpreter (the semantic reference).
    #[default]
    Interp,
    /// The pre-decoded, closure-compiled tier (byte-identical results,
    /// much higher run throughput).
    Native,
}

impl ExecBackend {
    /// Canonical flag spelling.
    pub fn name(self) -> &'static str {
        match self {
            ExecBackend::Interp => "interp",
            ExecBackend::Native => "native",
        }
    }
}

impl FromStr for ExecBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "interp" | "interpreter" => Ok(ExecBackend::Interp),
            "native" => Ok(ExecBackend::Native),
            other => Err(format!(
                "unknown backend `{other}` (expected `interp` or `native`)"
            )),
        }
    }
}

impl fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs `func` with `args` on the chosen backend. For the native backend
/// this pre-decodes the program first; callers running the same program
/// repeatedly should compile a [`NativeProgram`] once and drive a
/// [`NativeMachine`] directly, [`reset`](NativeMachine::reset) between
/// runs.
///
/// # Errors
///
/// Propagates the backend's [`SimError`]; both backends fail identically.
pub fn run_compiled(
    backend: ExecBackend,
    cfg: MachineConfig,
    prog: &CompiledProgram,
    func: FuncId,
    args: &[Value],
) -> Result<RunResult, SimError> {
    match backend {
        ExecBackend::Interp => Machine::new(cfg).run(prog, func, args),
        ExecBackend::Native => {
            let np = NativeProgram::compile(prog, &cfg.cost);
            NativeMachine::new(cfg).run(&np, func, args)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CodegenOptions};

    /// Runs `src` on both backends and asserts the full results —
    /// return value, virtual time, stats, output, per-node busy time,
    /// site trace, op histogram — or the errors are identical. The
    /// native side runs twice: on a fresh machine and on one reset after
    /// an unrelated run on another node count, which must not differ.
    fn run_both(src: &str, nodes: u16, args: &[Value]) -> Result<RunResult, SimError> {
        let prog = earth_frontend::compile(src).expect("frontend");
        let compiled = compile(
            &prog,
            CodegenOptions {
                record_sites: true,
                ..CodegenOptions::default()
            },
        )
        .expect("codegen");
        let entry = compiled.function_by_name("main").expect("main");
        let cfg = MachineConfig {
            n_nodes: nodes,
            record_op_stats: true,
            ..MachineConfig::default()
        };
        let a = run_compiled(ExecBackend::Interp, cfg.clone(), &compiled, entry, args);
        let b = run_compiled(ExecBackend::Native, cfg.clone(), &compiled, entry, args);
        let np = NativeProgram::compile(&compiled, &cfg.cost);
        let mut reused = NativeMachine::new(MachineConfig::with_nodes(nodes % 3 + 1));
        let _ = reused.run(&np, entry, args);
        reused.reset(cfg);
        let c = reused.run(&np, entry, args);
        for (name, native) in [("native", b), ("reused native", c)] {
            match (&a, native) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.ret, y.ret, "{name}");
                    assert_eq!(x.time_ns, y.time_ns, "{name}: virtual completion time");
                    assert_eq!(x.stats, y.stats, "{name}");
                    assert_eq!(x.output, y.output, "{name}");
                    assert_eq!(x.node_busy_ns, y.node_busy_ns, "{name}");
                    assert_eq!(x.site_trace.per_site, y.site_trace.per_site, "{name}");
                    assert_eq!(x.op_stats, y.op_stats, "{name}");
                    assert_eq!(x.op_stats.total(), x.stats.ops, "{name}");
                }
                (Err(x), Err(y)) => assert_eq!(*x, y, "{name}"),
                (a, b) => panic!("backends disagree: interp={a:?} {name}={b:?}"),
            }
        }
        a
    }

    fn assert_identical(src: &str, nodes: u16, args: &[Value]) {
        run_both(src, nodes, args).expect("run succeeds");
    }

    #[test]
    fn scalar_math_identical() {
        assert_identical(
            r#"
            struct Point { double x; double y; };
            double main() {
                Point *p;
                double d;
                p = malloc(sizeof(Point));
                p->x = 3.0;
                p->y = 4.0;
                d = sqrt(p->x * p->x + p->y * p->y);
                print_double(d);
                return d;
            }
            "#,
            2,
            &[],
        );
    }

    #[test]
    fn tree_fork_remote_calls_identical() {
        let src = r#"
            struct T { T* left; T* right; int v; };
            T* build(int depth, int lo) {
                T *t;
                t = malloc(sizeof(T));
                t->v = depth;
                if (depth == 0) { t->left = NULL; t->right = NULL; return t; }
                t->left = build_at(depth - 1, lo * 2);
                t->right = build_at(depth - 1, lo * 2 + 1);
                return t;
            }
            T* build_at(int depth, int lo) {
                return build(depth, lo) @ (lo % num_nodes());
            }
            int sum(T *t) {
                int a;
                int b;
                if (t == NULL) { return 0; }
                {^
                    a = sum_at(t->left);
                    b = sum_at(t->right);
                ^}
                return a + b + t->v;
            }
            int sum_at(T *t) {
                if (t == NULL) { return 0; }
                return sum(t) @ OWNER_OF(t);
            }
            int main(int depth) {
                T *root;
                root = build(depth, 0);
                return sum(root);
            }
        "#;
        for nodes in [1, 2, 8] {
            assert_identical(src, nodes, &[Value::Int(5)]);
        }
    }

    #[test]
    fn forall_shared_counter_identical() {
        let src = r#"
            struct node { node* next; int value; };
            int equal_node(node local *p, node *q) {
                return p->value == q->value;
            }
            int count(node *head, node *x) {
                shared int cnt;
                node *p;
                writeto(&cnt, 0);
                forall (p = head; p != NULL; p = p->next) {
                    if (equal_node(p, x) @ OWNER_OF(p)) {
                        addto(&cnt, 1);
                    }
                }
                return valueof(&cnt);
            }
            int main(int n) {
                node *head;
                node *q;
                node *x;
                int i;
                head = NULL;
                for (i = 0; i < n; i = i + 1) {
                    q = malloc_on(i % num_nodes(), sizeof(node));
                    q->value = rand() % 5;
                    q->next = head;
                    head = q;
                }
                x = malloc(sizeof(node));
                x->value = 2;
                return count(head, x);
            }
        "#;
        for nodes in [1, 3, 4] {
            assert_identical(src, nodes, &[Value::Int(25)]);
        }
    }

    #[test]
    fn errors_identical() {
        let prog = earth_frontend::compile(
            r#"
            int main(int d) {
                int x;
                x = 10 / d;
                return x;
            }
            "#,
        )
        .unwrap();
        let compiled = compile(&prog, CodegenOptions::default()).unwrap();
        let entry = compiled.function_by_name("main").unwrap();
        let cfg = MachineConfig::default();
        let a = run_compiled(
            ExecBackend::Interp,
            cfg.clone(),
            &compiled,
            entry,
            &[Value::Int(0)],
        )
        .unwrap_err();
        let b =
            run_compiled(ExecBackend::Native, cfg, &compiled, entry, &[Value::Int(0)]).unwrap_err();
        assert_eq!(a, b);
    }

    #[test]
    fn double_edge_cases_identical() {
        // NaN, signed zero, infinities, `%` on negative doubles, and
        // mixed Int/Double arithmetic, comparisons and branches (`k` is
        // an Int flowing into double expressions).
        let src = r#"
            double main(int k) {
                double z;
                double n;
                double inf;
                double r;
                int i;
                z = 0.0;
                n = z / z;
                print_double(n);
                inf = 1.0 / z;
                print_double(inf);
                print_double(-inf);
                print_double(inf - inf);
                print_double(-z);
                if (-z == z) { print_int(1); }
                if (n == n) { print_int(2); } else { print_int(3); }
                if (n != n) { print_int(4); }
                if (n < inf) { print_int(5); }
                if (-inf < k) { print_int(6); }
                print_int(n >= n);
                r = -7.5 % 2.0;
                print_double(r);
                r = 7.5 % -2.0;
                print_double(r);
                print_double(inf % 2.0);
                i = k;
                r = i + 0.5;
                print_double(r);
                r = i * 2.5 - i / 2;
                print_double(r);
                print_double(1 / z);
                print_double(i % 2.0);
                if (i < 2.5) { print_int(7); }
                if (2.5 >= i) { print_int(8); }
                if (i == 3.0) { print_int(9); }
                if (i - 3.0) { print_int(10); } else { print_int(11); }
                return r;
            }
        "#;
        for k in [-3, 0, 3] {
            let r = run_both(src, 1, &[Value::Int(k)]).unwrap();
            assert_eq!(r.output[0], "NaN");
        }
        // An Int argument where `double` parameters are declared.
        let src = r#"
            double main(double x, double y) {
                if (x < y) { return x * y; }
                return x - y;
            }
        "#;
        for (x, y) in [
            (Value::Int(2), Value::Double(2.5)),
            (Value::Double(-0.0), Value::Int(0)),
            (Value::Int(7), Value::Int(3)),
        ] {
            run_both(src, 1, &[x, y]).unwrap();
        }
    }

    #[test]
    fn pointer_comparisons_identical() {
        let src = r#"
            struct T { int v; };
            int main(int k) {
                T *p;
                T *q;
                T *r;
                T *o;
                int x;
                p = malloc(sizeof(T));
                q = malloc(sizeof(T));
                o = malloc_on(1, sizeof(T));
                r = NULL;
                if (p == NULL) { print_int(1); }
                if (r == NULL) { print_int(2); }
                if (NULL != p) { print_int(3); }
                if (p != q) { print_int(4); }
                if (p == p) { print_int(5); }
                if (o != p) { print_int(6); }
                if (r == r) { print_int(7); }
                x = (p == q) + (r != NULL) * 2 + (p != o) * 4 + (r == NULL) * 8;
                print_int(x);
                if (k > 0) {
                    if (p < q) { print_int(7); }
                }
                return x;
            }
        "#;
        let r = run_both(src, 2, &[Value::Int(0)]).unwrap();
        assert_eq!(r.output, ["2", "3", "4", "5", "6", "7", "12"]);
        let e = run_both(src, 2, &[Value::Int(1)]).unwrap_err();
        assert_eq!(e.message, "ordered comparison of pointers");
    }

    #[test]
    fn int_division_by_zero_identical() {
        for (op, text) in [("/", "division"), ("%", "remainder")] {
            let src = format!(
                "int main(int d) {{ int x; x = 10 {op} d; if (x {op} d) {{ x = 1; }} return x; }}"
            );
            run_both(&src, 1, &[Value::Int(4)]).unwrap();
            let e = run_both(&src, 1, &[Value::Int(0)]).unwrap_err();
            assert_eq!(e.message, format!("integer {text} by zero"));
        }
    }

    #[test]
    fn recycled_thread_ids_identical() {
        // Every fork arm and remote call runs in a thread whose record
        // is recycled when it ends, and the next one on the same node
        // reuses it: a remote call to `bump` from the same node finds
        // the callee node's EU last used by that very id.
        let src = r#"
            int bump(int x) { return x + 1; }
            int arm(int i) {
                int a;
                a = bump(i) @ (i % num_nodes());
                return bump(a) @ ((i + 1) % num_nodes());
            }
            int main(int n) {
                int i;
                int a;
                int b;
                int s;
                s = 0;
                for (i = 0; i < n; i = i + 1) {
                    {^
                        a = arm(i);
                        b = arm(i + 1);
                    ^}
                    s = s + a + b;
                }
                return s;
            }
        "#;
        for nodes in [1, 2, 3] {
            let r = run_both(src, nodes, &[Value::Int(20)]).unwrap();
            // arm(i) = i + 2, summed over arms i and i + 1.
            assert_eq!(r.ret, Value::Int((0..20).map(|i| 2 * i + 5).sum()));
        }
    }

    #[test]
    fn budget_error_identical() {
        let prog = earth_frontend::compile(
            r#"
            int main() {
                int i;
                i = 0;
                while (i >= 0) { i = i + 1; }
                return i;
            }
            "#,
        )
        .unwrap();
        let compiled = compile(&prog, CodegenOptions::default()).unwrap();
        let entry = compiled.function_by_name("main").unwrap();
        let cfg = MachineConfig {
            max_ops: 10_000,
            ..MachineConfig::default()
        };
        let a = run_compiled(ExecBackend::Interp, cfg.clone(), &compiled, entry, &[]).unwrap_err();
        let b = run_compiled(ExecBackend::Native, cfg, &compiled, entry, &[]).unwrap_err();
        assert!(a.message.contains("budget"));
        assert_eq!(a, b);
    }

    #[test]
    fn backend_flag_parses() {
        assert_eq!(
            "interp".parse::<ExecBackend>().unwrap(),
            ExecBackend::Interp
        );
        assert_eq!(
            "native".parse::<ExecBackend>().unwrap(),
            ExecBackend::Native
        );
        assert!("jit".parse::<ExecBackend>().is_err());
        assert_eq!(ExecBackend::default(), ExecBackend::Interp);
        assert_eq!(ExecBackend::Native.to_string(), "native");
    }
}
