//! Input-size bounds of the frontend. Nesting past [`MAX_NESTING`] is a
//! clean `FE001` error, every construct nested exactly to the limit parses
//! and lowers on a 2 MiB stack, and lowering time is linear in the input.

use earth_frontend::{compile, lower_unit, parse_unit, FrontendError, MAX_NESTING};
use std::time::{Duration, Instant};

/// Runs `f` on a thread with a 2 MiB stack, the size of test threads and
/// `earthd` workers.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap()
}

/// Every shape, nested `n` levels around an innermost `return v;` (or
/// `v = v;`). The enclosing statement and its expression take two more
/// levels, so `n = MAX_NESTING - 2` reaches the limit exactly.
const SHAPES: &[&str] = &[
    "paren", "neg", "not", "sum", "and", "call", "if", "else-if", "while", "for", "do", "block",
    "switch", "par",
];

fn nested(shape: &str, n: usize) -> String {
    let rep = |s: &str| s.repeat(n);
    let body = match shape {
        "paren" => format!("return {}v{};", rep("("), rep(")")),
        "neg" => format!("return {}v;", rep("- ")),
        "not" => format!("return {}v;", rep("!")),
        "sum" => format!("return v{};", rep(" + v")),
        "and" => format!("return v{};", rep(" && v")),
        "call" => format!("return {}v{};", rep("f("), rep(")")),
        "if" => format!("{}return v;{}", rep("if (v > 0) { "), rep(" }")),
        "else-if" => format!("{}return v;", rep("if (v == 1) { v = 2; } else ")),
        "while" => format!("{}return v;{}", rep("while (f(v)) { "), rep(" }")),
        "for" => format!(
            "{}return v;{}",
            rep("for (v = 0; v < 3; v = v + 1) { "),
            rep(" }")
        ),
        "do" => format!("{}return v;{}", rep("do { "), rep(" } while (f(v));")),
        "block" => format!("{}return v;{}", rep("{ "), rep(" }")),
        "switch" => format!("{}return v;{}", rep("switch (v) { default: "), rep(" }")),
        "par" => format!("{}v = v;{} return v;", rep("{^ "), rep(" ^}")),
        _ => unreachable!("unknown shape {shape}"),
    };
    format!("int f(int v) {{ {body} }}")
}

fn assert_too_deep(src: &str, what: &str) {
    match compile(src) {
        Err(e @ FrontendError::Parse(_)) => {
            let d = e.to_diagnostic();
            assert_eq!(d.code, "FE001", "{what}: {e}");
            assert!(d.message.contains("nesting too deep"), "{what}: {e}");
        }
        other => panic!("{what}: expected a nesting error, got {other:?}"),
    }
}

#[test]
fn every_shape_at_the_limit_parses_and_lowers_on_a_small_stack() {
    on_small_stack(|| {
        for shape in SHAPES {
            let src = nested(shape, MAX_NESTING - 2);
            if let Err(e) = compile(&src) {
                panic!("{shape} at the limit: {e}");
            }
        }
    });
}

#[test]
fn one_level_past_the_limit_is_a_syntax_error() {
    on_small_stack(|| {
        for shape in SHAPES {
            assert_too_deep(&nested(shape, MAX_NESTING - 1), shape);
        }
    });
}

#[test]
fn hostile_nesting_fails_cleanly() {
    on_small_stack(|| {
        let n = 200_000;
        let parens = format!("int f() {{ return {}1{}; }}", "(".repeat(n), ")".repeat(n));
        assert_too_deep(&parens, "200k parentheses");
        let sum = format!("int f(int v) {{ return v{}; }}", " + v".repeat(n));
        assert_too_deep(&sum, "200k-term sum");
    });
}

/// A left-deep sum's height counts like nesting, wherever the sum sits:
/// a parenthesized sum that is itself the first operand of a long sum is
/// as deep as both together.
#[test]
fn operator_chains_count_their_height() {
    let half = MAX_NESTING / 2;
    let inner = format!("(v{})", " + v".repeat(half));
    let src = format!("int f(int v) {{ return {inner}{}; }}", " + v".repeat(half));
    assert_too_deep(&src, "stacked sums");
}

/// N statements, each a left-associated sum at the nesting limit (~100 KB
/// of source). Lowering once walked each subtree again per level, which
/// made this shape take seconds even in release; one typed pass keeps it
/// linear.
#[test]
fn lowering_time_is_linear_in_expression_depth() {
    let stmt = format!("    x = v{};\n", " + v".repeat(MAX_NESTING - 2));
    let n = 100_000 / stmt.len();
    let src = format!(
        "int f(int v) {{\n    int x;\n{}    return x;\n}}\n",
        stmt.repeat(n)
    );
    let unit = parse_unit(&src).unwrap();
    let start = Instant::now();
    lower_unit(&unit).unwrap();
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "lowering {} bytes took {took:?}",
        src.len()
    );
}
