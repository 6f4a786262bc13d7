//! Determinism of the optimizer across the threads that run it.
//!
//! An `earthd` pool worker compiles a request on whichever thread picks it
//! up, and every thread seeds its hash maps differently. These tests pin
//! the contract: for every sample program, paper-figure example, and Olden
//! kernel, two compiles on two fresh threads produce byte-identical
//! pretty-printed IR, identical `MotionLog`s, and identical
//! `SelectionStats` — no result may depend on hash iteration order.

use earthc::earth_analysis;
use earthc::earth_commopt::{
    optimize_program_with, AliasMode, CommOptConfig, MotionLog, SelectionStats,
};
use earthc::earth_ir::pretty;

/// Paper worked examples (Figures 3, 4, and 8).
const PAPER_FIGURES: &[(&str, &str)] = &[
    (
        "fig3_distance",
        r#"
        struct Point { double x; double y; };
        double distance(Point *p) {
            double d;
            d = sqrt(p->x * p->x + p->y * p->y);
            return d;
        }
    "#,
    ),
    (
        "fig4_scale_point",
        r#"
        struct Point { double x; double y; };
        double scale(double v, double k) { return v * k; }
        void scale_point(Point *p, double k) {
            p->x = scale(p->x, k);
            p->y = scale(p->y, k);
        }
    "#,
    ),
    (
        "fig8_closest_point",
        r#"
        struct Point { Point* next; double x; double y; };
        double f(double ax, double ay, double bx, double by) {
            return (ax - bx) * (ax - bx) + (ay - by) * (ay - by);
        }
        double closest(Point *head, Point *t, double epsilon) {
            Point *p;
            Point *close;
            double ax; double ay; double bx; double by;
            double dist; double cx; double tx; double diffx;
            double cy; double ty; double diffy;
            close = head;
            p = head;
            while (p != NULL) {
                ax = p->x;
                ay = p->y;
                bx = t->x;
                by = t->y;
                dist = f(ax, ay, bx, by);
                if (dist < epsilon) { close = p; }
                p = p->next;
            }
            cx = close->x;
            tx = t->x;
            diffx = cx - tx;
            cy = close->y;
            ty = t->y;
            diffy = cy - ty;
            return diffx * diffx + diffy * diffy;
        }
    "#,
    ),
];

/// Runs `f` twice, concurrently, on two freshly spawned threads. Each
/// fresh thread seeds its hash maps differently, so any output that
/// depends on hash iteration order differs between the two results.
fn on_two_threads<T: Send>(f: impl Fn() -> T + Sync) -> (T, T) {
    std::thread::scope(|s| {
        let a = s.spawn(&f);
        let b = s.spawn(&f);
        (
            a.join().expect("first thread"),
            b.join().expect("second thread"),
        )
    })
}

/// Optimizes `src` with the given config; returns the printed IR, the
/// per-function motion logs, and the summed selection counters.
fn optimize_cfg(src: &str, cfg: &CommOptConfig) -> (String, Vec<MotionLog>, SelectionStats) {
    let mut prog = earthc::compile_earth_c(src).expect("compiles");
    earth_analysis::infer_locality(&mut prog);
    let analysis = earth_analysis::analyze(&prog);
    let report = optimize_program_with(&mut prog, cfg, &analysis);
    let motions = report.functions.iter().map(|f| f.motion.clone()).collect();
    (pretty::print_program(&prog), motions, report.total())
}

/// Asserts that two compiles of `src` on two fresh threads agree.
fn assert_deterministic_cfg(
    name: &str,
    src: &str,
    cfg: &CommOptConfig,
) -> (String, Vec<MotionLog>, SelectionStats) {
    let ((ir1, motions1, stats1), (ir2, motions2, stats2)) =
        on_two_threads(|| optimize_cfg(src, cfg));
    assert_eq!(ir1, ir2, "{name}: IR differs between two compiles");
    assert_eq!(
        motions1, motions2,
        "{name}: motion logs differ between two compiles"
    );
    assert_eq!(
        stats1, stats2,
        "{name}: selection stats differ between two compiles"
    );
    (ir1, motions1, stats1)
}

fn assert_deterministic(name: &str, src: &str) {
    assert_deterministic_cfg(name, src, &CommOptConfig::default());
}

#[test]
fn sample_programs_are_deterministic() {
    let mut checked = 0;
    for entry in std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/programs")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("ec") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        assert_deterministic(&path.display().to_string(), &src);
        checked += 1;
    }
    assert!(
        checked >= 3,
        "expected the sample programs, found {checked}"
    );
}

#[test]
fn paper_figures_are_deterministic() {
    for (name, src) in PAPER_FIGURES {
        assert_deterministic(name, src);
    }
}

#[test]
fn olden_kernels_are_deterministic() {
    let suite = earthc::earth_olden::suite();
    assert_eq!(suite.len(), 6, "all six Olden kernels");
    for bench in suite {
        assert_deterministic(bench.name, bench.source);
    }
}

/// Profile-guided optimization does not depend on the worker thread
/// either: feeding the same measured profile, two compiles on two fresh
/// threads produce byte-identical optimized IR and identical selection
/// counters (including `pgo_flips`).
#[test]
fn pgo_output_is_worker_invariant() {
    use earthc::earth_olden::Preset;
    use earthc::earth_sim::{CodegenOptions, Machine, MachineConfig};
    use earthc::{Profile, ProfileDb};
    use std::sync::Arc;
    for bench in earthc::earth_olden::suite() {
        // Instrumented run: the simple build with site recording.
        let prog = earthc::compile_earth_c(bench.source).expect("compiles");
        let opts = CodegenOptions {
            record_sites: true,
            ..CodegenOptions::default()
        };
        let compiled = earthc::earth_sim::compile(&prog, opts).expect("codegen");
        let entry = compiled.function_by_name("main").expect("main");
        let mut m = Machine::new(MachineConfig::with_nodes(4));
        let r = m
            .run(&compiled, entry, &(bench.args)(Preset::Test))
            .expect("instrumented run");
        let db = Arc::new(ProfileDb::new(Profile::from_trace(
            &compiled,
            &r.site_trace,
        )));
        let cfg = CommOptConfig {
            profile: Some(db),
            ..CommOptConfig::default()
        };
        let opt = || {
            let mut prog = earthc::compile_earth_c(bench.source).expect("compiles");
            let analysis = earth_analysis::analyze(&prog);
            let report = optimize_program_with(&mut prog, &cfg, &analysis);
            (pretty::print_program(&prog), report.total())
        };
        let ((ir1, stats1), (ir2, stats2)) = on_two_threads(opt);
        // Every Olden kernel's measured profile flips at least one
        // selection decision at this size, so this exercises the PGO path
        // for real rather than vacuously agreeing on static choices.
        assert!(stats1.pgo_flips > 0, "{}: no decisions flipped", bench.name);
        assert_eq!(
            ir1, ir2,
            "{}: PGO IR differs between two compiles",
            bench.name
        );
        assert_eq!(
            stats1, stats2,
            "{}: PGO stats differ between two compiles",
            bench.name
        );
    }
}

/// Prob-alias mode does not depend on the worker thread either: the
/// probability facts are recomputed per function from the IR alone, so
/// two compiles on two fresh threads must agree. Sweeps the sample
/// programs and every Olden kernel; health must exercise the induction
/// relaxation for real (non-zero `induction_blocks`).
#[test]
fn prob_alias_output_is_worker_invariant() {
    let cfg = CommOptConfig {
        alias: AliasMode::Prob,
        ..CommOptConfig::default()
    };
    let mut sources: Vec<(String, String)> = Vec::new();
    for entry in std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/programs")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) == Some("ec") {
            let src = std::fs::read_to_string(&path).unwrap();
            sources.push((path.display().to_string(), src));
        }
    }
    for bench in earthc::earth_olden::suite() {
        sources.push((bench.name.to_string(), bench.source.to_string()));
    }
    for (name, src) in &sources {
        let (_, _, stats) = assert_deterministic_cfg(name, src, &cfg);
        if name == "health" {
            assert!(
                stats.induction_blocks > 0,
                "health: prob path not exercised"
            );
        }
    }
}

/// Differential correctness of prob-alias mode: for every sample program
/// and every Olden kernel, the prob-optimized build computes the same
/// result as the unoptimized (`simple`) build.
#[test]
fn prob_optimized_matches_simple_results() {
    use earthc::earth_olden::{by_name, run, Build, Preset};
    use earthc::{Pipeline, Value};
    let cfg = CommOptConfig {
        alias: AliasMode::Prob,
        ..CommOptConfig::default()
    };
    let programs: &[(&str, &[Value])] = &[
        ("programs/count.ec", &[Value::Int(8)]),
        ("programs/distance.ec", &[]),
        ("programs/treesum.ec", &[Value::Int(4)]),
    ];
    for (path, args) in programs {
        let src =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/").to_string() + path)
                .unwrap();
        let build = |cfg: Option<CommOptConfig>| {
            Pipeline::new()
                .nodes(4)
                .optimizer(cfg)
                .verify(true)
                .run_source(&src, args)
                .unwrap_or_else(|e| panic!("{path}: {e}"))
        };
        let simple = build(None);
        let prob = build(Some(cfg.clone()));
        assert_eq!(simple.ret, prob.ret, "{path}: prob build changed result");
    }
    for bench in earthc::earth_olden::suite() {
        let bench = by_name(bench.name).unwrap();
        let simple = run(&bench, &Build::Simple, Preset::Test, 2).expect("simple run");
        let prob = run(&bench, &Build::Optimized(cfg.clone()), Preset::Test, 2).expect("prob run");
        assert_eq!(
            simple.ret, prob.ret,
            "{}: prob build changed result",
            bench.name
        );
    }
}

/// The end-to-end pipeline (with inlining and field reordering enabled, so
/// every transform pass runs) does not depend on the worker thread either:
/// two runs on two fresh threads give the same result, the same virtual
/// time, and the same dynamic communication stats.
#[test]
fn full_pipeline_is_worker_invariant() {
    use earthc::{Pipeline, Value};
    let src = PAPER_FIGURES
        .iter()
        .find(|(n, _)| *n == "fig3_distance")
        .unwrap()
        .1;
    let wrapped = format!(
        r#"{src}
        double main() {{
            Point *p;
            p = malloc_on(1, sizeof(Point));
            p->x = 3.0;
            p->y = 4.0;
            return distance(p);
        }}
    "#
    );
    let run = || {
        Pipeline::new()
            .nodes(4)
            .inlining(Some(earthc::earth_commopt::InlineConfig::default()))
            .field_reordering(true)
            .verify(true)
            .lint(true)
            .run_source(&wrapped, &[])
            .unwrap()
    };
    let (one, two) = on_two_threads(run);
    assert_eq!(one.ret, two.ret);
    assert_eq!(
        one.time_ns, two.time_ns,
        "virtual time must not depend on host threads"
    );
    assert_eq!(one.stats, two.stats);
    assert_eq!(one.ret, Value::Double(5.0));
}
