//! Pass-manager integration tests: one shared analysis per pipeline run,
//! pass ordering, instrumentation, and failure routing.

use earthc::earth_commopt::InlineConfig;
use earthc::{Pipeline, PipelineError, Value};

const SRC: &str = r#"
    struct Point { double x; double y; };
    double distance(Point *p) {
        double d;
        d = sqrt(p->x * p->x + p->y * p->y);
        return d;
    }
    double main() {
        Point *p;
        p = malloc_on(1, sizeof(Point));
        p->x = 3.0;
        p->y = 4.0;
        return distance(p);
    }
"#;

/// Regression test for the historical `--verify-placement` repeated
/// analysis (verify, lint, and optimize each ran `earth_analysis::analyze`
/// privately): a verify + lint + optimize pipeline run performs exactly
/// ONE whole-program analysis, asserted via the cache's miss counter.
/// Verify computes it; lint and optimize answer from the cache.
#[test]
fn verify_lint_optimize_analyze_once() {
    let (result, report) = Pipeline::new()
        .nodes(2)
        .verify(true)
        .lint(true)
        .run_source_report(SRC, &[])
        .unwrap();
    assert_eq!(result.ret, Value::Double(5.0));
    assert_eq!(
        report.cache.misses,
        1,
        "exactly one whole-program analysis; got:\n{}",
        report.render()
    );
    assert_eq!(
        report.cache.hits,
        2,
        "lint and optimize reuse the verify pass's analysis:\n{}",
        report.render()
    );
}

/// The pipeline registers passes in the documented order and reports one
/// entry per executed pass.
#[test]
fn pass_order_matches_configuration() {
    let pipeline = Pipeline::new()
        .inlining(Some(InlineConfig::default()))
        .field_reordering(true)
        .verify(true)
        .lint(true);
    assert_eq!(
        pipeline.pass_manager().pass_names(),
        [
            "inline",
            "field-reorder",
            "locality",
            "verify-placement",
            "race-lint",
            "optimize",
            "validate-ir"
        ]
    );
    let (_, report) = pipeline.run_source_report(SRC, &[]).unwrap();
    let names: Vec<&str> = report.passes.iter().map(|p| p.name).collect();
    assert_eq!(
        names,
        [
            "inline",
            "field-reorder",
            "locality",
            "verify-placement",
            "race-lint",
            "optimize",
            "validate-ir"
        ]
    );
    // Still one analysis, even with every transform pass enabled.
    assert_eq!(report.cache.misses, 1, "{}", report.render());
}

/// `--no-opt` pipelines skip verify/optimize but still validate the IR.
#[test]
fn unoptimized_pipeline_skips_optimizer_passes() {
    let pipeline = Pipeline::new().optimizer(None).verify(true);
    assert_eq!(
        pipeline.pass_manager().pass_names(),
        ["locality", "validate-ir"]
    );
    let (_, report) = pipeline.run_source_report(SRC, &[]).unwrap();
    assert_eq!(report.cache.misses, 0, "no pass needed the analysis");
}

/// The optimize pass records motion counters on the report.
#[test]
fn optimize_pass_reports_motion_counters() {
    let (_, report) = Pipeline::new().run_source_report(SRC, &[]).unwrap();
    let opt = report.pass("optimize").expect("optimize ran");
    assert_eq!(opt.get_counter("pipelined_reads"), Some(2));
    assert_eq!(opt.get_counter("reads_rewritten"), Some(4));
    // Exactly the functions selection rewrote were invalidated.
    assert_eq!(
        opt.get_counter("functions_changed"),
        Some(opt.cache.invalidations)
    );
}

/// A racy program surfaces its verdicts through the report without
/// aborting the run.
#[test]
fn race_lint_pass_records_verdicts() {
    let racy = r#"
        struct N { N* next; int v; };
        int main(int n) {
            N *a;
            int i;
            a = malloc(sizeof(N));
            a->v = 0;
            forall (i = 0; i < n; i = i + 1) {
                a->v = a->v + i;
            }
            return a->v;
        }
    "#;
    let (_, report) = Pipeline::new()
        .lint(true)
        .run_source_report(racy, &[Value::Int(3)])
        .unwrap();
    let lint = report.pass("race-lint").expect("lint ran");
    assert_eq!(lint.get_counter("racy"), Some(1), "{}", report.render());
    assert!(
        lint.diagnostics.iter().any(|d| d.code == "PAR001"),
        "verdict diagnostics recorded"
    );
}

/// The verify pass reports a zero violation counter on clean programs and
/// the JSON report includes every pass entry.
#[test]
fn verify_pass_reports_clean_run_and_json_shape() {
    let (_, report) = Pipeline::new()
        .verify(true)
        .run_source_report(SRC, &[])
        .unwrap();
    let verify = report.pass("verify-placement").expect("verify ran");
    assert_eq!(verify.get_counter("violations"), Some(0));
    let json = report.to_json();
    assert!(json.contains("\"name\":\"verify-placement\""), "{json}");
    // The report JSON parses as a diagnostics-style object tree (smoke:
    // balanced braces, no trailing comma artifacts).
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "{json}"
    );
}

/// Legacy entry points still work and stay consistent with the report
/// variants.
#[test]
fn legacy_run_matches_report_run() {
    let plain = Pipeline::new().run_source(SRC, &[]).unwrap();
    let (reported, _) = Pipeline::new().run_source_report(SRC, &[]).unwrap();
    assert_eq!(plain.ret, reported.ret);
    assert_eq!(plain.time_ns, reported.time_ns);
}

/// Frontend errors still come out of the report path as
/// `PipelineError::Frontend`.
#[test]
fn frontend_errors_propagate_through_report_path() {
    let err = Pipeline::new()
        .run_source_report("int main() { return y; }", &[])
        .unwrap_err();
    assert!(matches!(err, PipelineError::Frontend(_)), "{err}");
}
