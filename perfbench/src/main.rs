//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]`
//!
//! Prints a human summary on stderr and, as the last line of stdout, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--out DIR` the result and its provenance are also written to a new file
//! in `DIR`.

use backfi_perfbench::jobs::{Plan, Workload};
use backfi_perfbench::replay::Doctor;
use backfi_perfbench::report::{result_line, write_result, Provenance};
use backfi_perfbench::{run, Options};
use std::path::PathBuf;

const USAGE: &str = "usage: perfbench --workload range_sweep|reader_replay|client_coexistence \
--seed N --seconds S --trace 0|1 [--out DIR]";

fn parse() -> Result<(Options, Option<PathBuf>), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let opts = Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        plan: Plan::full(),
        doctor: Doctor::None,
    };
    Ok((opts, out))
}

fn main() {
    let (opts, out) = match parse() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let prov = Provenance::collect(
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace,
        opts.threads,
    );
    eprintln!("# provenance {}", prov.to_json());
    let r = run(&opts);
    eprintln!(
        "# {} seed={} threads={} pass={} jobs: attempted={} failed={} fail_frac={} digest={:016x}",
        opts.workload.name(),
        opts.seed,
        opts.threads,
        r.pass_len,
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64,
        r.digest
    );
    eprintln!(
        "# simulated: decode_frac={} median_cancellation_db={} median_snr_db={}",
        r.decode_frac, r.median_cancellation_db, r.median_snr_db
    );
    for m in &r.metrics {
        eprintln!("#   {:<32} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for n in &r.notes {
        eprintln!("# note: {n}");
    }
    let line = result_line(r.correct, r.attempted, r.failed, &r.metrics);
    if let Some(dir) = out {
        let body = format!(
            "{{\"provenance\": {}, \"digest\": \"{:016x}\", \"pass_len\": {}, \"fail_frac\": {}, \"decode_frac\": {}, \"median_cancellation_db\": {}, \"median_snr_db\": {}, \"result\": {}}}",
            prov.to_json(),
            r.digest,
            r.pass_len,
            r.failed as f64 / r.attempted.max(1) as f64,
            r.decode_frac,
            r.median_cancellation_db,
            r.median_snr_db,
            line
        );
        match write_result(&dir, &prov, &body) {
            Ok(path) => eprintln!("# result written to {}", path.display()),
            Err(e) => eprintln!("# could not write result to {}: {e}", dir.display()),
        }
    }
    println!("{line}");
}
