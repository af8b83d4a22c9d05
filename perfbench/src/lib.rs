//! End-to-end and per-layer benchmark of the BackFi reproduction.
//!
//! One process runs one workload (see [`jobs::Workload`]) as a closed loop
//! over `core::sweep::Executor`: each worker starts its next job when the
//! previous one returns. The untraced run calls only the program's public
//! entry points and gives the end-to-end metrics; the traced run replays
//! the same jobs stage by stage ([`replay`]) and gives the per-layer ones.
//! See `README.md` in this directory.

pub mod jobs;
pub mod replay;
pub mod report;

use backfi_core::link::LinkReport;
use backfi_core::sweep::Executor;
use jobs::{Plan, Prepared, Workload};
use replay::{ClientOutcome, Doctor, Layers, Outcome};
use report::{quantile, ratio, Fnv, Metric};
use std::time::Instant;

/// Jobs handed to the executor per round of a timed loop. Rounds keep the
/// loop's own bookkeeping small; the workers idle only at round ends.
const ROUND_JOBS: usize = 8192;

/// The untraced loop runs in this many equal segments, each after a batch
/// of timed set-ups, so that the set-up times sample the host over the
/// whole run and not only over its first second.
const SEGMENTS: usize = 8;
/// A set-up batch repeats set-up at least once and until it has taken this
/// long, so that fast set-ups still give many samples.
const SETUP_BATCH_MIN_S: f64 = 0.25;
/// Upper bound on set-up repetitions in one batch.
const SETUP_BATCH_MAX_REPS: usize = 50;

/// What one run does.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measured time of the untraced loop; with `trace` it gets half of
    /// this, and the traced loop then replays exactly one pass.
    pub seconds: f64,
    pub trace: bool,
    pub threads: usize,
    pub plan: Plan,
    /// Corrupt one replayed stage (tests of the fidelity gate).
    pub doctor: Doctor,
}

/// Everything a run measured.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// FNV-1a over the first pass's job outcomes, in pass order.
    pub digest: u64,
    /// Jobs in one pass.
    pub pass_len: usize,
    pub decode_frac: f64,
    /// Median cancellation over first-pass jobs that reached the reader, dB.
    pub median_cancellation_db: f64,
    /// Median measured SNR (tag symbols, or client packets) over the first
    /// pass's finite values, dB.
    pub median_snr_db: f64,
    /// Human-readable notes (failures, loop caps).
    pub notes: Vec<String>,
}

/// What a job returns to the loop.
#[derive(Clone, Copy, Debug, PartialEq)]
enum JobOutcome {
    Link(Outcome),
    Client(ClientOutcome),
}

impl JobOutcome {
    fn digest(&self, h: &mut Fnv) {
        match self {
            JobOutcome::Link(o) => {
                h.write_u64(o.success as u64);
                h.write_u64(o.cancellation_db().to_bits());
                h.write_u64(o.measured_snr_db().to_bits());
            }
            JobOutcome::Client(o) => {
                h.write_u64(o.ok_off as u64 | (o.ok_on as u64) << 1);
                h.write_u64(o.snr_off_db().to_bits());
                h.write_u64(o.snr_on_db().to_bits());
            }
        }
    }

    /// Successful decodes and decode attempts this job made.
    fn decodes(&self) -> (u64, u64) {
        match self {
            JobOutcome::Link(o) => (o.success as u64, 1),
            JobOutcome::Client(o) => (o.ok_off as u64 + o.ok_on as u64, 2),
        }
    }
}

/// One finished job of a timed loop.
struct Done<T> {
    index: usize,
    start_ns: u64,
    end_ns: u64,
    value: T,
}

/// What one closed loop ran.
struct LoopRun<T> {
    done: Vec<Done<T>>,
    panicked: usize,
    /// Wall time from the loop's start to its last finish, s.
    wall_s: f64,
    /// The job index the next loop starts at.
    next: usize,
}

/// A closed loop over `exec`: job indices `first..` are handed out in order
/// and each worker starts the next when its previous returns. Jobs below
/// `min_jobs` always run; later ones are skipped once `seconds` have
/// passed. Job times are taken from the loop's start.
fn closed_loop<T: Send>(
    exec: &Executor,
    first: usize,
    min_jobs: usize,
    seconds: f64,
    f: impl Fn(usize) -> T + Sync,
) -> LoopRun<T> {
    let round = ROUND_JOBS.max(min_jobs.saturating_sub(first));
    let items: Vec<()> = vec![(); round];
    let t0 = Instant::now();
    let deadline = std::time::Duration::from_secs_f64(seconds);
    let mut done = Vec::new();
    let mut panicked = 0;
    let mut next = first;
    for base in (first..).step_by(round) {
        if base >= min_jobs && t0.elapsed() >= deadline {
            break;
        }
        let out = exec.run_caught(&items, |k, _| {
            let i = base + k;
            if i >= min_jobs && t0.elapsed() >= deadline {
                return None;
            }
            let start_ns = t0.elapsed().as_nanos() as u64;
            let value = f(i);
            let end_ns = t0.elapsed().as_nanos() as u64;
            Some(Done {
                index: i,
                start_ns,
                end_ns,
                value,
            })
        });
        for r in out {
            match r {
                Ok(Some(d)) => {
                    next = next.max(d.index + 1);
                    done.push(d);
                }
                Ok(None) => {}
                Err(p) => {
                    next = next.max(base + p.index + 1);
                    panicked += 1;
                }
            }
        }
    }
    let wall_ns = done.iter().map(|d| d.end_ns).max().unwrap_or(0);
    LoopRun {
        done,
        panicked,
        wall_s: wall_ns as f64 * 1e-9,
        next,
    }
}

/// Hand the allocator's free memory back to the OS, so that every timed
/// set-up pays the first-touch cost a fresh process pays. Without it a
/// set-up reuses whatever free pages the heap happened to keep, which
/// depends on the layout the previous set-up and the timed loop left
/// behind: `range_sweep`'s set-up then took a third of its cold time on
/// some seeds and all of it on others.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's malloc_trim takes no pointers and is thread-safe.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

/// Set the workload up again, timing every repetition, at least once and
/// until [`SETUP_BATCH_MIN_S`] have passed. The previous set-up is dropped
/// (and its memory released) before each repetition, so at most one is
/// alive; the last is kept.
fn setup_batch(
    opts: &Options,
    exec: &Executor,
    prepared: &mut Option<Prepared>,
    setup_s: &mut Vec<f64>,
    build_ms: &mut Vec<f64>,
) {
    let batch = Instant::now();
    for _ in 0..SETUP_BATCH_MAX_REPS {
        drop(prepared.take());
        release_free_memory();
        let t = Instant::now();
        let (p, build) = jobs::prepare(opts.workload, opts.seed, &opts.plan, exec);
        setup_s.push(t.elapsed().as_secs_f64());
        build_ms.extend(build);
        *prepared = Some(p);
        if batch.elapsed().as_secs_f64() >= SETUP_BATCH_MIN_S {
            break;
        }
    }
}

/// A link report a user could not trust: NaN anywhere, or a decoded frame
/// without a finite SNR.
fn report_is_sane(rep: &LinkReport) -> bool {
    let finite_or_neg_inf = |v: f64| !v.is_nan() && v != f64::INFINITY;
    rep.ber.is_finite()
        && rep.pre_fec_ber.is_finite()
        && rep.cancellation_db.is_finite()
        && finite_or_neg_inf(rep.expected_snr_db)
        && finite_or_neg_inf(rep.measured_snr_db)
        && (!rep.success || rep.measured_snr_db.is_finite())
}

/// The untraced job `j` of a pass, through the program's public entry
/// points only. `None` when an output check failed. `expected` holds the
/// source-trial outcome of every captured packet.
fn untraced_job(prepared: &Prepared, expected: &[Outcome], j: usize) -> Option<JobOutcome> {
    match prepared {
        Prepared::RangeSweep { sims, jobs, .. } => {
            let job = jobs[j];
            let rep = sims[job.cell].run(job.seed);
            report_is_sane(&rep).then(|| JobOutcome::Link(Outcome::of_report(&rep)))
        }
        Prepared::ReaderReplay { packets, .. } => {
            let p = &packets[j];
            let got = replay::decode_packet(p, prepared.x_scaled(j));
            (got == expected[j]).then_some(JobOutcome::Link(got))
        }
        Prepared::ClientCoexistence {
            exp,
            jobs,
            psdu_bytes,
            ..
        } => {
            let job = jobs[j];
            let r = exp.run(job.mcs, 1, *psdu_bytes, job.seed);
            let sane = (r.success_off == 0.0 || r.success_off == 1.0)
                && (r.success_on == 0.0 || r.success_on == 1.0);
            sane.then(|| JobOutcome::Client(ClientOutcome::of_result(&r)))
        }
    }
}

/// Per-job result of a traced replay.
struct TracedJob {
    layers: Layers,
    fidelity_ok: bool,
    sic_ok: bool,
}

/// Run the replay and the program's own call on one job, in the given
/// order, adding the replay's wall time (verification excluded) and the
/// program's to `l`.
fn paired<R, P>(
    l: &mut Layers,
    replay_first: bool,
    replay: impl FnOnce(&mut Layers) -> R,
    program: impl FnOnce() -> P,
) -> (R, P) {
    let run_replay = |l: &mut Layers| {
        let (t, verify0) = (Instant::now(), l.verify_ns);
        let r = replay(l);
        l.replay_ns += t.elapsed().as_nanos() as u64 - (l.verify_ns - verify0);
        r
    };
    let run_program = |l: &mut Layers| {
        let t = Instant::now();
        let p = program();
        l.reference_ns += t.elapsed().as_nanos() as u64;
        p
    };
    if replay_first {
        let r = run_replay(l);
        (r, run_program(l))
    } else {
        let p = run_program(l);
        (run_replay(l), p)
    }
}

/// Replay job `j` stage by stage, run the program's own call on the same
/// input, and compare. Even jobs replay first and odd jobs call the program
/// first, so neither side always finds the caches warm.
fn traced_job(prepared: &Prepared, expected: &[Outcome], j: usize, doctor: Doctor) -> TracedJob {
    let mut l = Layers::default();
    let replay_first = j.is_multiple_of(2);
    let (fidelity_ok, sic_ok) = match prepared {
        Prepared::RangeSweep { sims, jobs, .. } => {
            let (sim, seed) = (&sims[jobs[j].cell], jobs[j].seed);
            let xs = prepared.x_scaled(j);
            let (traced, rep) = paired(
                &mut l,
                replay_first,
                |l| replay::trial(sim, xs, seed, l, doctor),
                || sim.run(seed),
            );
            (
                traced.outcome == Outcome::of_report(&rep),
                !traced.sic_mismatch,
            )
        }
        Prepared::ReaderReplay { packets, .. } => {
            let p = &packets[j];
            let xs = prepared.x_scaled(j);
            let (traced, got) = paired(
                &mut l,
                replay_first,
                |l| replay::reader_only(p, xs, l, doctor),
                || replay::decode_packet(p, xs),
            );
            (
                traced.outcome == expected[j] && got == expected[j],
                !traced.sic_mismatch,
            )
        }
        Prepared::ClientCoexistence {
            exp,
            jobs,
            psdu_bytes,
            ..
        } => {
            let job = jobs[j];
            let (traced, r) = paired(
                &mut l,
                replay_first,
                |l| replay::client(exp, &job, *psdu_bytes, l),
                || exp.run(job.mcs, 1, *psdu_bytes, job.seed),
            );
            (traced == ClientOutcome::of_result(&r), true)
        }
    };
    TracedJob {
        layers: l,
        fidelity_ok,
        sic_ok,
    }
}

/// Run one workload: set-up, the untraced timed loop, and (with `trace`)
/// the traced replay loop.
pub fn run(opts: &Options) -> RunResult {
    let exec = Executor::with_threads(opts.threads);
    let mut notes = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;

    // An untimed warm-up set-up, whose captured packets are checked against
    // their source trials. A packet that does not decode as its source
    // trial also fails the output check of every job that replays it.
    let (warm, _) = jobs::prepare(opts.workload, opts.seed, &opts.plan, &exec);
    let (expected, capture_mismatch) = jobs::verify_capture(&warm, &exec);
    if capture_mismatch > 0 {
        notes.push(format!(
            "{capture_mismatch} captured packets did not decode as their source trial"
        ));
    }
    let pass_len = warm.pass_len();
    assert!(pass_len > 0, "workload pass is empty");

    // ---- untraced closed loop, in segments after timed set-ups ---------
    let loop_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut prepared = Some(warm);
    let (mut setup_s, mut build_ms) = (Vec::new(), Vec::new());
    let (mut done, mut panicked, mut wall_s, mut next) = (Vec::new(), 0, 0.0, 0);
    for _ in 0..SEGMENTS {
        setup_batch(opts, &exec, &mut prepared, &mut setup_s, &mut build_ms);
        let p = prepared.as_ref().expect("a set-up is kept");
        let seg = closed_loop(&exec, next, pass_len, loop_s / SEGMENTS as f64, |i| {
            untraced_job(p, &expected, i % pass_len)
        });
        done.extend(seg.done);
        panicked += seg.panicked;
        wall_s += seg.wall_s;
        next = seg.next;
    }
    let prepared = prepared.expect("a set-up is kept");
    attempted += (done.len() + panicked) as u64;
    failed += panicked as u64;
    if panicked > 0 {
        notes.push(format!("{panicked} jobs panicked"));
    }
    // First-pass outcomes define the digest and the simulated statistics;
    // every later pass must repeat them exactly.
    let mut first: Vec<Option<JobOutcome>> = vec![None; pass_len];
    for d in done.iter().filter(|d| d.index < pass_len) {
        first[d.index] = d.value;
    }
    let mut check_failed = 0u64;
    for d in &done {
        match d.value {
            None => check_failed += 1,
            Some(v) if d.index >= pass_len && first[d.index % pass_len] != Some(v) => {
                check_failed += 1
            }
            Some(_) => {}
        }
    }
    if check_failed > 0 {
        notes.push(format!("{check_failed} jobs failed an output check"));
    }
    failed += check_failed;

    let mut digest = Fnv::new();
    let (mut decoded, mut decode_tries) = (0u64, 0u64);
    let mut cancellation = Vec::new();
    let mut snr = Vec::new();
    for o in first.iter() {
        match o {
            Some(o) => {
                o.digest(&mut digest);
                let (ok, tries) = o.decodes();
                decoded += ok;
                decode_tries += tries;
                match o {
                    JobOutcome::Link(o) => {
                        if o.cancellation_db() != 0.0 {
                            cancellation.push(o.cancellation_db());
                        }
                        if o.measured_snr_db().is_finite() {
                            snr.push(o.measured_snr_db());
                        }
                    }
                    JobOutcome::Client(o) => {
                        snr.extend(
                            [o.snr_off_db(), o.snr_on_db()]
                                .into_iter()
                                .filter(|v| v.is_finite()),
                        );
                    }
                }
            }
            None => digest.write_u64(u64::MAX),
        }
    }
    let decode_frac = ratio(decoded as f64, decode_tries as f64);

    // Every job of the pass runs several times in a run (the first pass
    // always completes). A job's latency is the median of its repeats, so a
    // slow spell of the host that covers fewer than half of them does not
    // move it; the latency quantiles are then taken over the pass's jobs.
    let mut repeats_ms: Vec<Vec<f64>> = vec![Vec::new(); pass_len];
    for d in &done {
        repeats_ms[d.index % pass_len].push((d.end_ns - d.start_ns) as f64 * 1e-6);
    }
    let latencies_ms: Vec<f64> = repeats_ms.iter().map(|r| quantile(r, 0.5)).collect();
    let pass_samples: f64 = (0..pass_len).map(|j| prepared.job_samples(j) as f64).sum();
    let pass_s = latencies_ms.iter().sum::<f64>() * 1e-3;
    let busy_ns: f64 = done.iter().map(|d| (d.end_ns - d.start_ns) as f64).sum();
    let busy_frac = ratio(busy_ns, wall_s * 1e9 * exec.threads() as f64);

    let metrics = if !opts.trace {
        report::metrics(
            &report::END_TO_END,
            &[
                // One worker's rate over the pass at each job's median
                // latency, times the workers kept busy.
                (
                    "baseband_msps",
                    ratio(pass_samples, pass_s) * exec.threads() as f64 * busy_frac * 1e-6,
                ),
                ("trial_ms_p50", quantile(&latencies_ms, 0.5)),
                ("trial_ms_p99", quantile(&latencies_ms, 0.99)),
                ("setup_s", quantile(&setup_s, 0.5)),
                ("peak_rss_mb", report::peak_rss_mb()),
                ("decode_frac", decode_frac),
            ],
        )
    } else {
        // ---- traced replay loop --------------------------------------
        // Exactly one pass, whatever its speed: the counts, the fractions
        // and the shares then cover the same jobs on every run, and change
        // only when the layer mix does.
        let doctor = opts.doctor;
        let LoopRun {
            done: traced,
            panicked: tpanicked,
            ..
        } = closed_loop(&exec, 0, pass_len, 0.0, |i| {
            traced_job(&prepared, &expected, i, doctor)
        });
        attempted += (traced.len() + tpanicked) as u64;
        failed += tpanicked as u64;
        let mut l = Layers::default();
        let (mut fidelity_fail, mut sic_fail) = (0u64, 0u64);
        for d in &traced {
            l.add(&d.value.layers);
            fidelity_fail += !d.value.fidelity_ok as u64;
            sic_fail += !d.value.sic_ok as u64;
        }
        let traced_fail = traced
            .iter()
            .filter(|d| !d.value.fidelity_ok || !d.value.sic_ok)
            .count() as u64;
        if traced_fail > 0 {
            notes.push(format!(
                "replay fidelity gate: {fidelity_fail} outcome mismatches, {sic_fail} SIC split mismatches"
            ));
        }
        failed += traced_fail;

        let per = |ns: u64, n: u64| ratio(ns as f64, n as f64);
        let reference = l.reference_ns as f64;
        report::metrics(
            &report::PER_LAYER,
            &[
                ("excitation.build_ms", quantile(&build_ms, 0.5)),
                ("sweep.busy_frac", busy_frac),
                ("chan.calls", l.chan_calls as f64),
                (
                    "chan.medium_new_us",
                    per(l.medium_new_ns, l.medium_new_calls) * 1e-3,
                ),
                (
                    "chan.incident_ns_per_sample",
                    per(l.incident_ns, l.incident_samples),
                ),
                (
                    "chan.propagate_ns_per_sample",
                    per(l.propagate_ns, l.propagate_samples),
                ),
                (
                    "chan.propagate_share",
                    ratio(l.propagate_ns as f64, reference),
                ),
                ("tag.react_ns_per_sample", per(l.react_ns, l.react_samples)),
                ("tag.wake_frac", per(l.woke, l.trials)),
                ("sic.calls", l.sic_calls as f64),
                (
                    "sic.analog_ns_per_sample",
                    per(l.sic_analog_ns, l.sic_samples),
                ),
                ("sic.adc_ns_per_sample", per(l.sic_adc_ns, l.sic_samples)),
                (
                    "sic.train_us",
                    per(l.sic_train_ns, l.sic_train_calls) * 1e-3,
                ),
                (
                    "sic.apply_ns_per_sample",
                    per(l.sic_apply_ns, l.sic_apply_samples),
                ),
                ("sic.share", ratio(l.sic_ns() as f64, reference)),
                ("reader.calls", l.reader_calls as f64),
                (
                    "reader.chanest_us",
                    per(l.chanest_ns, l.chanest_calls) * 1e-3,
                ),
                (
                    "reader.chanest_fail_frac",
                    per(l.chanest_fail, l.reader_calls),
                ),
                ("reader.mrc_ns_per_sample", per(l.mrc_ns, l.mrc_samples)),
                ("reader.decode_ns_per_bit", per(l.decode_ns, l.decode_bits)),
                ("reader.crc_ok_frac", per(l.crc_ok, l.decode_calls)),
                ("reader.share", ratio(l.reader_ns() as f64, reference)),
                (
                    "wifi.tx_ns_per_sample",
                    per(l.wifi_tx_ns, l.wifi_tx_samples),
                ),
                (
                    "wifi.rx_ns_per_sample",
                    per(l.wifi_rx_ns, l.wifi_rx_samples),
                ),
                ("wifi.rx_ok_frac", per(l.wifi_rx_ok, l.wifi_rx_calls)),
                (
                    "network.channel_ns_per_sample",
                    per(l.network_channel_ns, l.network_channel_samples),
                ),
                ("link.coverage_frac", ratio(l.named_ns() as f64, reference)),
                (
                    "trace.overhead_frac",
                    ratio(l.replay_ns as f64 - reference, reference),
                ),
                ("trace.jobs", traced.len() as f64),
                ("trace.fidelity_fail", fidelity_fail as f64),
                ("trace.sic_split_fail", sic_fail as f64),
            ],
        )
    };

    RunResult {
        correct: failed == 0 && metrics.iter().all(|m| m.value.is_finite()),
        attempted,
        failed,
        metrics,
        digest: digest.finish(),
        pass_len,
        decode_frac,
        median_cancellation_db: quantile(&cancellation, 0.5),
        median_snr_db: quantile(&snr, 0.5),
        notes,
    }
}
