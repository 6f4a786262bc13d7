//! Process readings, statistics, and the printed result.

use earthc::earth_ir::json::Obj;

/// Process CPU time (user + system, all threads) in milliseconds, from
/// `/proc/self/stat` (clock ticks of 10 ms).
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // Fields 14 and 15 of the file, counted after the `(comm)` field.
    (tick(11) + tick(12)) * 10.0
}

/// Resets the peak resident set to the current one (`clear_refs` 5), so
/// [`peak_rss_mb`] reports the peak since this call.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn host_json(command: &str) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Obj::new()
        .str("cpu", &cpu)
        .u64("nproc", nproc() as u64)
        .str("rustc", env!("BENCH_RUSTC_VERSION"))
        .str("command", command)
        .finish()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Nearest-rank percentile of unsorted samples (`q` in 0..=1).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median (the mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The median within each group, averaged over the groups. The base
/// programs differ by an order of magnitude in size and cost, so a plain
/// median over a balanced mix sits between two modes and jumps with a
/// one-request change in the mix; this does not.
pub fn mean_of_medians(samples: &[(usize, f64)]) -> f64 {
    let mut groups: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for &(g, v) in samples {
        groups.entry(g).or_default().push(v);
    }
    if groups.is_empty() {
        return 0.0;
    }
    groups.values().map(|v| median(v)).sum::<f64>() / groups.len() as f64
}

/// One named metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// A note printed beside the value (sample counts, provenance).
    pub note: String,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        note: String::new(),
    }
}

pub fn metrics_json(ms: &[&Metric]) -> String {
    let mut o = Obj::new();
    for m in ms {
        o = o.raw(
            m.name,
            &Obj::new()
                .f64("value", m.value)
                .str("unit", m.unit)
                .finish(),
        );
    }
    o.finish()
}

pub fn print_table(title: &str, ms: &[Metric]) {
    println!("{title}");
    for m in ms {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!("  {:<26} {:>14.4} {:<7}{note}", m.name, m.value, m.unit);
    }
}

/// The last line of standard output: the machine-readable result.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    Obj::new()
        .bool("correct", correct)
        .u64("attempted", attempted)
        .u64("failed", failed)
        .raw("metrics", metrics)
        .finish()
}
