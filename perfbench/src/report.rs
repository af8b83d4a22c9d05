//! Metric formatting, provenance and result files.

use backfi_obs::json::escape;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// One printed metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Names and units of the end-to-end metrics (untraced run), in print order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("baseband_msps", "MS/s"),
    ("trial_ms_p50", "ms"),
    ("trial_ms_p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("decode_frac", "frac"),
];

/// Names and units of the per-layer metrics (traced run), in print order.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("excitation.build_ms", "ms"),
    ("sweep.busy_frac", "frac"),
    ("chan.calls", "count"),
    ("chan.medium_new_us", "us"),
    ("chan.incident_ns_per_sample", "ns/sample"),
    ("chan.propagate_ns_per_sample", "ns/sample"),
    ("chan.propagate_share", "frac"),
    ("tag.react_ns_per_sample", "ns/sample"),
    ("tag.wake_frac", "frac"),
    ("sic.calls", "count"),
    ("sic.analog_ns_per_sample", "ns/sample"),
    ("sic.adc_ns_per_sample", "ns/sample"),
    ("sic.train_us", "us"),
    ("sic.apply_ns_per_sample", "ns/sample"),
    ("sic.share", "frac"),
    ("reader.calls", "count"),
    ("reader.chanest_us", "us"),
    ("reader.chanest_fail_frac", "frac"),
    ("reader.mrc_ns_per_sample", "ns/sample"),
    ("reader.decode_ns_per_bit", "ns/bit"),
    ("reader.crc_ok_frac", "frac"),
    ("reader.share", "frac"),
    ("wifi.tx_ns_per_sample", "ns/sample"),
    ("wifi.rx_ns_per_sample", "ns/sample"),
    ("wifi.rx_ok_frac", "frac"),
    ("network.channel_ns_per_sample", "ns/sample"),
    ("link.coverage_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.jobs", "count"),
    ("trace.fidelity_fail", "count"),
    ("trace.sic_split_fail", "count"),
];

/// Build metrics from `(name, value)` pairs, taking each unit from `table`.
pub fn metrics(table: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("metric {name} was not computed"));
            Metric { name, unit, value }
        })
        .collect()
}

/// `a / b`, or 0 when nothing was measured.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Quantile `q` of `v` by linear interpolation between order statistics.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            escape(m.name),
            num(m.value),
            escape(m.unit)
        );
    }
    s.push_str("}}");
    s
}

/// Where and on what a result was measured.
#[derive(Clone, Debug)]
pub struct Provenance {
    pub git_rev: String,
    pub source_digest: String,
    pub cpu_model: String,
    pub nproc: usize,
    pub avx2: bool,
    pub simd_env: String,
    pub simd_backend: String,
    pub threads: usize,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Provenance {
    pub fn collect(workload: &str, seed: u64, seconds: f64, trace: bool, threads: usize) -> Self {
        let root = source_root();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        Provenance {
            git_rev: git_rev(&root),
            source_digest: source_digest(&root),
            cpu_model,
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            avx2,
            simd_env: std::env::var("BACKFI_SIMD").unwrap_or_else(|_| "unset".to_string()),
            simd_backend: backfi_dsp::simd::backend().label().to_string(),
            threads,
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_rev\": \"{}\", \"source_digest\": \"{}\", \"cpu_model\": \"{}\", \"nproc\": {}, \"avx2\": {}, \"simd_env\": \"{}\", \"simd_backend\": \"{}\", \"threads\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
            escape(&self.git_rev),
            escape(&self.source_digest),
            escape(&self.cpu_model),
            self.nproc,
            self.avx2,
            escape(&self.simd_env),
            escape(&self.simd_backend),
            self.threads,
            escape(&self.workload),
            self.seed,
            num(self.seconds),
            self.trace
        )
    }
}

/// The repository the benchmark was built from (the parent of this
/// package). Only read from, for the revision and the source digest.
fn source_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_default()
}

/// `git rev-parse HEAD` when the source tree is a git checkout of its own.
fn git_rev(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a 64 over the program's sources (`crates/**/*.rs`, every
/// `Cargo.toml`, and the lock file), in path order. Identifies the code when
/// the checkout carries no git metadata.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs")
                || p.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = Fnv::new();
    let mut any = false;
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            any = true;
            h.write(
                f.strip_prefix(root)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            h.write(&bytes);
        }
    }
    if any {
        format!("{:016x}", h.finish())
    } else {
        "unknown".to_string()
    }
}

/// FNV-1a 64.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Peak resident set of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Write `body` to a new file in `dir` (created if missing). The name
/// carries the workload, seed, trace flag, time and process id, and an
/// existing file is never replaced. Returns the path written.
pub fn write_result(dir: &Path, prov: &Provenance, body: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let stem = format!(
        "{}-seed{}-trace{}-{}-{}",
        prov.workload,
        prov.seed,
        prov.trace as u8,
        stamp,
        std::process::id()
    );
    for n in 0u32.. {
        let path = if n == 0 {
            dir.join(format!("{stem}.json"))
        } else {
            dir.join(format!("{stem}-{n}.json"))
        };
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut f) => {
                f.write_all(body.as_bytes())?;
                f.write_all(b"\n")?;
                f.sync_all()?;
                return Ok(path);
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
    unreachable!("u32 file suffixes exhausted")
}
