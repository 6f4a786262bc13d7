//! Golden fence for the frontend: pins the lowered SIMPLE IR and the exact
//! diagnostics of `earth_frontend::compile`.
//!
//! * Every source in the corpus — `programs/*.ec`, the Olden kernels, the
//!   raw-string sources embedded in the test suites and a few synthetic
//!   programs below — is pinned by the FNV digest of
//!   `print_program(compile(src))`, or by its error text when it does not
//!   compile. Entries are keyed by the digest of the source text, so moving
//!   a test around does not disturb its pin.
//! * Every error-path case of `crates/frontend/tests/error_paths.rs`, plus a
//!   handful of programs with several errors, is pinned by the exact
//!   `FrontendError` text (message and position).
//!
//! The generator-based suites pin their own samples (`prop_exec`,
//! `prop_placement`). On a mismatch each test prints the freshly computed
//! table so an intended change can be reviewed and re-pinned.

use earthc::earth_frontend::compile;
use earthc::earth_ir::fnv::fnv1a;
use earthc::earth_ir::pretty::print_program;
use std::collections::HashMap;
use std::path::Path;

/// What `compile` makes of a source: `ir:<digest>` or `err:<text>`.
fn outcome(src: &str) -> String {
    match compile(src) {
        Ok(prog) => format!("ir:{:016x}", fnv1a(print_program(&prog).as_bytes())),
        Err(e) => format!("err:{e}"),
    }
}

/// Raw-string literals (`r#"…"#`) in a Rust file that are not `format!`
/// templates.
fn embedded_sources(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find("r#\"") {
        let body = &rest[start + 3..];
        let Some(end) = body.find("\"#") else { break };
        let src = &body[..end];
        if !src.contains("{{") {
            out.push(src.to_string());
        }
        rest = &body[end + 2..];
    }
    out
}

/// Synthetic programs covering every expression form in value, condition
/// and discard position.
const EXTRA_SOURCES: &[&str] = &[
    r#"
struct P { P* next; double x; int n; };
int id(int a) { return a; }
void touch(P *p) { p->n = p->n + 1; }
double mix(P *p, int k) {
    double d;
    int i;
    int b;
    P *q;
    shared int s;
    writeto(&s, k * 2 - -k);
    d = -(p->x * p->x + k / 2) - sqrt(fabs(p->x - 1.5));
    b = !(k < 3) && (p != NULL || k % 2 == 0);
    b = b || !p;
    i = id(id(k) + id(valueof(&s))) @ (k % num_nodes());
    q = malloc_on(k % num_nodes(), sizeof(P));
    q->next = p->next;
    touch(q) @ OWNER_OF(q);
    print_int(i + b);
    while (id(i) > 0 && p->next != NULL) { i = i - 1; p = p->next; }
    do { i = i + id(1); } while (i < k * 3);
    for (i = 0; id(i) < k || i < 2; i = i + 1) { addto(&s, i); }
    if (p->n) { d = d + 1; } else { d = d - p->n * 2.0; }
    if (-k + 1 < k * (k - 1)) { d = d * 2; }
    switch (k % 3 + id(k)) { case 0: d = 0; break; case -1: d = 1; break; default: d = 2; }
    return d + valueof(&s) + rand() % 7;
}
"#,
    r#"
struct T { T* l; T* r; int v; };
int deep(T *t, int a, int b) {
    int x;
    x = ((a + b) * (a - b) - (a * a - b * b)) + (((a))) - -(-(-b));
    x = x + t->l->v;
    if (t->l == NULL && t->r == NULL || a > b && !(b > a)) { x = 1; }
    return ((x + 1) * 2 + (x - 1) * 3) % 5 + (t != NULL);
}
"#,
];

fn corpus(root: &Path) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut programs: Vec<_> = std::fs::read_dir(root.join("programs"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "ec"))
        .collect();
    programs.sort();
    for p in programs {
        let label = format!("programs/{}", p.file_name().unwrap().to_string_lossy());
        out.push((label, std::fs::read_to_string(&p).unwrap()));
    }
    for b in earthc::earth_olden::suite() {
        out.push((format!("olden:{}", b.name), b.source.to_string()));
    }
    let mut files: Vec<_> = std::fs::read_dir(root.join("tests"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.extension().is_some_and(|x| x == "rs")
                && p.file_name().is_some_and(|n| n != "frontend_golden.rs")
        })
        .collect();
    files.sort();
    for f in files {
        let text = std::fs::read_to_string(&f).unwrap();
        for (i, src) in embedded_sources(&text).into_iter().enumerate() {
            let label = format!("tests/{}#{i}", f.file_name().unwrap().to_string_lossy());
            out.push((label, src));
        }
    }
    for (i, src) in EXTRA_SOURCES.iter().enumerate() {
        out.push((format!("extra#{i}"), src.to_string()));
    }
    out
}

/// `(label, digest of the source, outcome)`.
const PINNED: &[(&str, &str, &str)] = &[
    (
        "programs/count.ec",
        "0c2c69e5c825e544",
        "ir:bf936120c7c9f0bb",
    ),
    (
        "programs/distance.ec",
        "e09238ab6673c9c7",
        "ir:eaed587277169fee",
    ),
    (
        "programs/orbit.ec",
        "6fd635df88fb14cf",
        "ir:581b4d87a54e3cb2",
    ),
    (
        "programs/treesum.ec",
        "65d3bb9101afe62b",
        "ir:4cedbf4dc576f222",
    ),
    ("olden:power", "52d9f9f3ed31e6aa", "ir:e19ffd198a0f0888"),
    ("olden:tsp", "e515b5fde867a6cd", "ir:ea6724a5b1f5364d"),
    ("olden:health", "69e4ebf789a4d557", "ir:871f311dbd3c4b46"),
    ("olden:perimeter", "53eef46ff88739ee", "ir:2301bca223631168"),
    ("olden:voronoi", "fc0aec70cabc904b", "ir:ced4533c469f02e2"),
    ("olden:treeadd", "2ded86faac607e49", "ir:7c0a5a856c13584e"),
    (
        "tests/determinism.rs#0",
        "b6a704ccd6408172",
        "ir:f014f5a57014a771",
    ),
    (
        "tests/determinism.rs#1",
        "be6d6ce60bf2f3af",
        "ir:3bd11062f8eda3ef",
    ),
    (
        "tests/determinism.rs#2",
        "79ff489a10587d06",
        "ir:4d11e009b9379b06",
    ),
    (
        "tests/paper_examples.rs#0",
        "336f606586a83d2c",
        "ir:a7f070e23be00a43",
    ),
    (
        "tests/paper_examples.rs#1",
        "6ded0dd878b80d66",
        "ir:b7840441fd85e48b",
    ),
    (
        "tests/paper_examples.rs#2",
        "a392dfa579981272",
        "ir:f014f5a57014a771",
    ),
    (
        "tests/paper_examples.rs#4",
        "dfd0bb56083ab576",
        "ir:4d11e009b9379b06",
    ),
    (
        "tests/pass_manager.rs#0",
        "c2aa684c40c8829e",
        "ir:e90c9f3a4a7aa77e",
    ),
    (
        "tests/pass_manager.rs#1",
        "7ee3ca18736ab643",
        "ir:fd5a962e5ecb0372",
    ),
    (
        "tests/pipeline.rs#0",
        "62ac68f38bcb6cd8",
        "ir:9824da4b547f5df5",
    ),
    (
        "tests/pipeline.rs#1",
        "2e9baeef0ee2c7dd",
        "ir:bfdf009125462cb0",
    ),
    (
        "tests/prop_exec.rs#0",
        "7339d7182d6abd7a",
        "ir:9c9962dbbd9a635a",
    ),
    (
        "tests/prop_exec.rs#1",
        "367354e2d518d0ca",
        "ir:eb74d9fb68cfd4a4",
    ),
    (
        "tests/prop_probalias.rs#0",
        "13eac17bb9e230d6",
        "ir:669ba31949c489bb",
    ),
    ("extra#0", "f6c9acd12a9cb99a", "ir:e458f9524bd52f64"),
    (
        "extra#1",
        "887bff4b90433e0c",
        "err:parse error at 6:17: expected `;`, found `->`",
    ),
];

#[test]
fn corpus_lowering_is_pinned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let pinned: HashMap<&str, (&str, &str)> =
        PINNED.iter().map(|(l, k, o)| (*k, (*l, *o))).collect();
    let mut seen = HashMap::new();
    let mut table = String::new();
    let mut failures = Vec::new();
    for (label, src) in corpus(root) {
        let key = format!("{:016x}", fnv1a(src.as_bytes()));
        if seen.insert(key.clone(), ()).is_some() {
            continue;
        }
        let got = outcome(&src);
        table.push_str(&format!("    ({label:?}, {key:?}, {got:?}),\n"));
        match pinned.get(key.as_str()) {
            Some((_, want)) if *want == got => {}
            Some((_, want)) => failures.push(format!("{label}: pinned {want}, got {got}")),
            None => failures.push(format!("{label}: not pinned")),
        }
    }
    for (key, (label, _)) in &pinned {
        if !seen.contains_key(*key) {
            failures.push(format!("{label}: pinned source no longer in the corpus"));
        }
    }
    assert!(
        failures.is_empty(),
        "{}\n\nfresh table:\n{table}",
        failures.join("\n")
    );
}

/// `(source, exact FrontendError text)`: the cases of `error_paths.rs` in
/// file order, then programs whose first error depends on evaluation order.
const ERRORS: &[(&str, &str)] = &[
    ("struct A { B* x; }; int main() { return 0; }", "error at 1:1: unknown struct `B` in field `x`"),
    ("struct A { A inner; }; int main() { return 0; }", "error at 1:1: struct `A` recursively contains itself by value"),
    ("struct A { int x; }; struct A { int y; }; int main() { return 0; }", "error at 1:22: duplicate struct `A`"),
    ("struct A { int x; }; int f() { return 0; } int f() { return 1; } ", "error at 1:44: duplicate function `f`"),
    ("struct A { int x; }; int sqrt(int v) { return v; }", "error at 1:22: `sqrt` shadows a builtin"),
    ("struct A { int x; }; int main() { void v; return 0; }", "parse error at 1:35: expected identifier, found `void`"),
    ("struct A { int x; }; int main() { A s; s.x = 1; return s->x; }", "error at 1:56: `s` is a struct; use `.`"),
    ("struct A { int x; }; int f(A *p) { return p.x; }", "error at 1:43: `p` is a pointer; use `->`"),
    ("struct A { int x; }; int f(A *p) { return p->y; }", "error at 1:43: struct `A` has no field `y`"),
    ("struct A { int x; }; int main() { return g(); }", "error at 1:42: unknown function `g`"),
    ("struct A { int x; }; int g(int a) { return a; } int main() { return g(); }", "error at 1:69: `g` expects 1 arguments, got 0"),
    ("struct A { int x; }; int main() { local int v; return 0; }", "error at 1:35: `local` only applies to pointers"),
    ("struct A { int x; }; int main() { shared double d; return 0; }", "error at 1:35: `shared` variables must have type int"),
    ("struct A { int x; }; int main() { shared int c; return c; }", "error at 1:56: read shared `c` with valueof(&c)"),
    ("struct A { int x; }; int main() { shared int c; c = 1; return 0; }", "error at 1:49: assign shared variables with writeto(&x, v)"),
    ("struct A { int x; }; int main() { int v; int w; w = &v; return w; }", "error at 1:53: `&` is only valid in writeto/addto/valueof arguments"),
    ("struct A { int x; }; int main() { return sizeof(A); }", "error at 1:42: `sizeof` is only valid inside malloc"),
    ("\n        struct N { N* next; int v; };\n        int main() {\n            N *p;\n            forall (p = NULL; p != NULL; p = p->next->next) { }\n            return 0;\n        }\n    ", "parse error at 5:53: expected `)`, found `->`"),
    ("\n        struct N { N* next; int v; };\n        int main() {\n            N *p;\n            N *q;\n            q = malloc(sizeof(N));\n            q->v = 1;\n            forall (p = q; q->v > 0; p = p->next) { }\n            return 0;\n        }\n    ", "error at 8:13: forall conditions must be simple comparisons over variables"),
    ("struct A { int x; }; int main() { return; }", "error at 1:35: missing return value"),
    ("struct A { int x; }; void f() { return 3; } int main() { return 0; }", "error at 1:33: void function returns a value"),
    ("struct A { int x; }; void f() { } int main() { return f(); }", "error at 1:55: void function `f` used as a value"),
    ("struct A { int x; }; int f(A *p) { return -p.x; }", "error at 1:44: `p` is a pointer; use `->`"),
    ("struct A { int x; }; int f(A s) { return 1 + s->x; }", "error at 1:46: `s` is a struct; use `.`"),
    ("struct A { int x; }; int f(A *p) { int v; v = p.x * 2; return v; }", "error at 1:47: `p` is a pointer; use `->`"),
    ("struct A { int x; }; void g() { } int f() { return 1 + g(); }", "error at 1:56: void function `g` used as a value"),
    ("struct A { int x; }; int f() { return -h(); }", "error at 1:40: unknown function `h`"),
    ("struct A { int x; }; int f() { int v; return 1 + &v; }", "error at 1:50: `&` is only valid in writeto/addto/valueof arguments"),
    ("struct A { int x; }; int f() { return 2 * sizeof(A); }", "error at 1:43: `sizeof` is only valid inside malloc"),
    ("struct A { int x; }; int f() { return -(malloc(sizeof(B))); }", "error at 1:41: unknown struct `B` in sizeof"),
    ("struct A { int x; }; int f(A *p) { return - -p; }", "error at 1:46: `-` requires a numeric operand"),
    ("struct A { int x; }; int f(A *p) { return -(p + 1); }", "error at 1:47: arithmetic requires numeric operands, got A* and int"),
    ("struct A { int x; }; int f() { int v; v = -NULL; return v; }", "error at 1:44: `-` requires a numeric operand"),
    ("struct A { int x; }; int f() { shared int s; return s + y; }", "error at 1:53: read shared `s` with valueof(&s)"),
    ("struct A { int x; }; int g(int a) { return a; } A* f() { A *p; p = 1 + g(y); return p; }", "error at 1:74: unknown variable `y` in `f`"),
    ("struct A { int x; }; int g(int a) { return a; } int f(A *p) { return g(p) + q; }", "error at 1:72: type mismatch: cannot assign A* to int"),
    ("struct A { int x; }; int f(A *p) { int v; v = (p < 1) + (p->y); return v; }", "error at 1:50: cannot compare A* with int"),
    ("struct A { int x; }; int f(A *p) { int v; v = p->x + p; v = w; return v; }", "error at 1:52: arithmetic requires numeric operands, got int and A*"),
    ("struct A { int x; }; int f(A *p) { if (p->x + p > 0) { return 1; } return z; }", "error at 1:45: arithmetic requires numeric operands, got int and A*"),
    ("struct A { int x; }; int f(A *p) { while (p->x && q) { p = NULL; } return 0; }", "error at 1:51: unknown variable `q` in `f`"),
    ("struct A { int x; }; int g(int a) { return a; } int f() { g(1, 2) @ (u); return 0; }", "error at 1:59: `g` expects 1 arguments, got 2"),
    ("struct A { int x; }; A* f() { A *p; p = malloc_on(k, sizeof(A)) ; return p + 1; }", "error at 1:51: unknown variable `k` in `f`"),
];

#[test]
fn diagnostics_are_pinned() {
    let mut table = String::new();
    let mut failures = Vec::new();
    for (src, want) in ERRORS {
        let got = match compile(src) {
            Err(e) => e.to_string(),
            Ok(_) => "<compiled>".to_string(),
        };
        table.push_str(&format!("    ({src:?}, {got:?}),\n"));
        if *want != got {
            failures.push(format!("{src:?}: pinned {want:?}, got {got:?}"));
        }
    }
    assert!(
        failures.is_empty(),
        "{}\n\nfresh table:\n{table}",
        failures.join("\n")
    );
}
