//! The run stamp: where and how a result was measured.

/// Seed reserved for re-checking claims: nobody tunes against it.
pub const HELD_OUT_SEED: u64 = 9_176_021;

/// The 1/5/15-minute load averages, as the kernel reports them.
pub fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// CPU time counters summed over all CPUs: (stolen by the hypervisor,
/// total), in clock ticks. Zeros when the kernel does not report them.
pub fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Print the stamp as one JSON line.
pub fn print(
    workload: &str,
    seed: u64,
    trace: bool,
    git: &(String, String),
    load_start: &str,
    ticks_start: (u64, u64),
) {
    let ticks = cpu_ticks();
    let steal = (ticks.0 - ticks_start.0) as f64 / (ticks.1 - ticks_start.1).max(1) as f64;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let backend = dp_tensor::backend::try_global_kind()
        .map_or_else(|e| format!("error: {e}"), |k| k.name().to_string());
    println!(
        "stamp {{\"workload\": {}, \"seed\": {seed}, \"held_out_seed\": {HELD_OUT_SEED}, \"trace\": {trace}, \
         \"nproc\": {nproc}, \"pool_threads\": {}, \"load_start\": {}, \"load_end\": {}, \"steal_share\": {steal:.4}, \"cpu\": {}, \
         \"backend\": {}, \"git_rev\": {}, \"git_dirty\": {}}}",
        quoted(workload),
        dp_pool::current_threads(),
        quoted(load_start),
        quoted(&load_average()),
        quoted(&cpu_model()),
        quoted(&backend),
        quoted(&git.0),
        quoted(&git.1),
    );
}
