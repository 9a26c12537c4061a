//! The repository's benchmark: one command per workload that prints
//! every end-to-end metric (or, traced, every per-layer metric) with
//! its unit, checks the outputs, and ends with one JSON result line.
//!
//! ```text
//! perfbench --workload <train_fekf|serve_fleet|md_deepmd> --seed <n>
//!           --seconds <s> --trace <0|1> [serving options]
//! ```
//!
//! See `METRICS.md` for what each metric means on each workload.

mod load;
mod md;
mod report;
mod serve;
mod stamp;
mod stats;
mod trace;
mod train;

use report::Outcome;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <train_fekf|serve_fleet|md_deepmd> --seed <n> --seconds <s> \
         --trace <0|1> [--git-rev <rev>] [--git-dirty <0|1>]\n\
         serve_fleet also needs --rate <req/s> --bulk-rate <req/s> --slo-ms <ms> --ladder <r1,r2,..>"
    );
    std::process::exit(2)
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let (mut rate, mut bulk_rate, mut slo_ms, mut ladder) = (None, None, None, None);
    let mut git = ("unknown".to_string(), "unknown".to_string());
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let num = |v: &str| {
            v.parse::<f64>()
                .unwrap_or_else(|_| usage(&format!("{flag}: bad number '{v}'")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("--seed: bad integer")),
                )
            }
            "--seconds" => seconds = Some(num(&value)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--rate" => rate = Some(num(&value)),
            "--bulk-rate" => bulk_rate = Some(num(&value)),
            "--slo-ms" => slo_ms = Some(num(&value)),
            "--ladder" => ladder = Some(value.split(',').map(num).collect::<Vec<f64>>()),
            "--git-rev" => git.0 = value,
            "--git-dirty" => git.1 = value,
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed is required"));
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    let trace = trace.unwrap_or_else(|| usage("--trace is required"));
    if seconds.is_nan() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    let load_start = stamp::load_average();
    let ticks_start = stamp::cpu_ticks();
    let mut out = Outcome::default();
    match workload.as_str() {
        "train_fekf" => train::run(seed, seconds, trace, &mut out),
        "serve_fleet" => {
            let need = |v: Option<f64>, flag: &str| {
                v.unwrap_or_else(|| usage(&format!("serve_fleet needs {flag}")))
            };
            let cfg = serve::Config {
                rate: need(rate, "--rate"),
                bulk_rate: need(bulk_rate, "--bulk-rate"),
                slo_ms: need(slo_ms, "--slo-ms"),
                ladder: ladder.unwrap_or_else(|| usage("serve_fleet needs --ladder")),
            };
            if cfg.ladder.is_empty() || cfg.ladder.windows(2).any(|w| w[0] >= w[1]) {
                usage("--ladder must list ascending rates");
            }
            serve::run(&cfg, seed, seconds, trace, &mut out)
        }
        "md_deepmd" => md::run(seed, seconds, trace, &mut out),
        other => usage(&format!("unknown workload '{other}'")),
    }
    stamp::print(&workload, seed, trace, &git, &load_start, ticks_start);
    out.print(trace);
    if !out.correct() {
        std::process::exit(1);
    }
}
