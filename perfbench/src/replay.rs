//! Stage-by-stage replays of the three job kinds, timed from outside.
//!
//! Each replay calls the same public layer entry points, in the same order
//! and with the same inputs, as the program's own job (`LinkSimulator::run`,
//! `BackscatterReader::decode`, `ClientPhyExperiment::run`), and times each
//! call into [`Layers`]. The replayed outcome is compared bit for bit with
//! the program's own: a mismatch means the traced run timed a different
//! program, and the job counts as failed.

use crate::jobs::{ClientJob, Packet};
use crate::report::Fnv;
use backfi_chan::budget::dbm_to_lin;
use backfi_chan::frontend::Adc;
use backfi_chan::medium::{BackscatterMedium, MediumConfig};
use backfi_chan::multipath::{scaled, MultipathProfile};
use backfi_core::excitation::Excitation;
use backfi_core::link::{LinkConfig, LinkReport, LinkSimulator};
use backfi_core::network::{ClientPhyExperiment, ClientPhyResult};
use backfi_dsp::noise::add_noise;
use backfi_dsp::rng::SplitMix64;
use backfi_dsp::simd::mean_power_auto;
use backfi_dsp::{stats, Complex};
use backfi_reader::chanest::estimate_h_fb;
use backfi_reader::decode::decode_symbols;
use backfi_reader::mrc::{mrc_symbol, zf_symbol, SymbolEstimate};
use backfi_reader::reader::{ReaderConfig, TagDecodeResult};
use backfi_reader::{BackscatterReader, ReaderError, Timeline};
use backfi_sic::analog::AnalogCanceller;
use backfi_sic::digital::DigitalCanceller;
use backfi_sic::{CancellerConfig, CancellerReport, SelfInterferenceCanceller};
use backfi_tag::config::TagConfig;
use backfi_tag::framer::{TagFrame, PILOT_SYMBOLS};
use backfi_tag::state::TagState;
use backfi_tag::Tag;
use backfi_wifi::{WifiReceiver, WifiTransmitter};
use std::ops::Range;
use std::time::Instant;

/// A deliberate corruption of one replayed stage, for testing that the
/// fidelity gate fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Doctor {
    None,
    /// Perturb one received sample after `BackscatterMedium::propagate`.
    Propagate,
    /// Perturb one sample after the digital SIC apply stage.
    SicApply,
}

/// The parts of a link job's result the fidelity gate compares, as raw
/// bits so equality is bit-for-bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Outcome {
    pub success: bool,
    cancellation_db: u64,
    measured_snr_db: u64,
}

impl Outcome {
    pub fn new(success: bool, cancellation_db: f64, measured_snr_db: f64) -> Outcome {
        Outcome {
            success,
            cancellation_db: cancellation_db.to_bits(),
            measured_snr_db: measured_snr_db.to_bits(),
        }
    }

    pub fn of_report(rep: &LinkReport) -> Outcome {
        Outcome::new(rep.success, rep.cancellation_db, rep.measured_snr_db)
    }

    pub fn cancellation_db(&self) -> f64 {
        f64::from_bits(self.cancellation_db)
    }

    pub fn measured_snr_db(&self) -> f64 {
        f64::from_bits(self.measured_snr_db)
    }

    /// A trial that did not wake the tag or failed in the reader.
    fn failed() -> Outcome {
        Outcome::new(false, 0.0, f64::NEG_INFINITY)
    }
}

/// The parts of a client job's result the fidelity gate compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ClientOutcome {
    pub ok_off: bool,
    pub ok_on: bool,
    snr_off_db: u64,
    snr_on_db: u64,
}

impl ClientOutcome {
    pub fn of_result(r: &ClientPhyResult) -> ClientOutcome {
        ClientOutcome {
            ok_off: r.success_off == 1.0,
            ok_on: r.success_on == 1.0,
            snr_off_db: r.snr_off_db.to_bits(),
            snr_on_db: r.snr_on_db.to_bits(),
        }
    }

    pub fn snr_off_db(&self) -> f64 {
        f64::from_bits(self.snr_off_db)
    }

    pub fn snr_on_db(&self) -> f64 {
        f64::from_bits(self.snr_on_db)
    }
}

/// Time and work per layer, summed over traced jobs. Times are ns.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub trials: u64,
    pub woke: u64,
    pub chan_calls: u64,
    pub medium_new_ns: u64,
    pub medium_new_calls: u64,
    pub incident_ns: u64,
    pub incident_samples: u64,
    pub propagate_ns: u64,
    pub propagate_samples: u64,
    pub react_ns: u64,
    pub react_samples: u64,
    pub sic_calls: u64,
    pub sic_analog_ns: u64,
    pub sic_adc_ns: u64,
    pub sic_train_ns: u64,
    pub sic_apply_ns: u64,
    /// Samples through the analog and ADC stages.
    pub sic_samples: u64,
    pub sic_train_calls: u64,
    pub sic_apply_samples: u64,
    /// Silent-window power scans and the retrain test.
    pub sic_other_ns: u64,
    pub reader_calls: u64,
    pub chanest_ns: u64,
    pub chanest_calls: u64,
    pub chanest_fail: u64,
    pub mrc_ns: u64,
    pub mrc_samples: u64,
    pub decode_ns: u64,
    pub decode_calls: u64,
    pub decode_bits: u64,
    pub crc_ok: u64,
    /// The reader's input checks and erasure flags.
    pub reader_check_ns: u64,
    /// Judging the trial as `LinkSimulator::run` does: success, BER and
    /// pre-FEC BER.
    pub link_judge_ns: u64,
    /// Payload sizing and freeing the trial's buffers.
    pub other_ns: u64,
    pub wifi_tx_ns: u64,
    pub wifi_tx_samples: u64,
    pub wifi_rx_ns: u64,
    pub wifi_rx_samples: u64,
    pub wifi_rx_calls: u64,
    pub wifi_rx_ok: u64,
    /// Client channel: multipath draws, FIRs, tag waveform and noise.
    pub network_channel_ns: u64,
    pub network_channel_samples: u64,
    /// Wall time of the program's own call for the same jobs.
    pub reference_ns: u64,
    /// Wall time of the replays themselves (verification excluded).
    pub replay_ns: u64,
    /// Wall time spent checking the SIC split against the canceller.
    pub verify_ns: u64,
}

impl Layers {
    pub fn add(&mut self, o: &Layers) {
        macro_rules! sum {
            ($($f:ident),*) => { $( self.$f += o.$f; )* };
        }
        sum!(
            trials,
            woke,
            chan_calls,
            medium_new_ns,
            medium_new_calls,
            incident_ns,
            incident_samples,
            propagate_ns,
            propagate_samples,
            react_ns,
            react_samples,
            sic_calls,
            sic_analog_ns,
            sic_adc_ns,
            sic_train_ns,
            sic_apply_ns,
            sic_samples,
            sic_train_calls,
            sic_apply_samples,
            sic_other_ns,
            reader_calls,
            chanest_ns,
            chanest_calls,
            chanest_fail,
            mrc_ns,
            mrc_samples,
            decode_ns,
            decode_calls,
            decode_bits,
            crc_ok,
            reader_check_ns,
            link_judge_ns,
            other_ns,
            wifi_tx_ns,
            wifi_tx_samples,
            wifi_rx_ns,
            wifi_rx_samples,
            wifi_rx_calls,
            wifi_rx_ok,
            network_channel_ns,
            network_channel_samples,
            reference_ns,
            replay_ns,
            verify_ns
        );
    }

    pub fn chan_ns(&self) -> u64 {
        self.medium_new_ns + self.incident_ns + self.propagate_ns
    }

    pub fn sic_ns(&self) -> u64 {
        self.sic_analog_ns
            + self.sic_adc_ns
            + self.sic_train_ns
            + self.sic_apply_ns
            + self.sic_other_ns
    }

    pub fn reader_ns(&self) -> u64 {
        self.reader_check_ns + self.chanest_ns + self.mrc_ns + self.decode_ns
    }

    /// Time in the named layer stages: everything but [`Layers::other_ns`].
    pub fn named_ns(&self) -> u64 {
        self.chan_ns()
            + self.react_ns
            + self.sic_ns()
            + self.reader_ns()
            + self.link_judge_ns
            + self.wifi_tx_ns
            + self.wifi_rx_ns
            + self.network_channel_ns
    }
}

/// Run `f`, adding its wall time to `acc`.
fn timed<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_nanos() as u64;
    out
}

/// The payload `LinkSimulator::run` loads into the tag, and whether a whole
/// CRC-protected frame fits the excitation.
fn payload(cfg: &LinkConfig, exc: &Excitation, seed: u64) -> (Vec<u8>, bool) {
    let airtime = backfi_dsp::samples_to_us(exc.samples.len() - exc.detect_end);
    let max_payload = TagFrame::max_payload_bytes(&cfg.tag, airtime);
    let payload_len = max_payload.clamp(1, 128);
    let sent = (0..payload_len)
        .map(|i| (seed as usize + i * 131 + 7) as u8)
        .collect();
    (sent, max_payload >= 1)
}

/// Judge a reader result the way `LinkSimulator::run` does, computing the
/// BER and pre-FEC BER it reports as well.
pub fn link_outcome(
    decoded: &Result<TagDecodeResult, ReaderError>,
    sent: &[u8],
    tag: &TagConfig,
    frame_fits: bool,
) -> Outcome {
    let Ok(res) = decoded else {
        return Outcome::failed();
    };
    std::hint::black_box(backfi_reader::decode::frame_ber(&res.decoded_bits, sent));
    // Pre-FEC BER: hard-decide each received phasor against the symbols the
    // tag modulated.
    let mut raw_errs = 0usize;
    let mut raw_bits = 0usize;
    for (i, &idx) in TagFrame::encode(sent, tag).iter().enumerate() {
        let Some(est) = res.symbols.get(i) else { break };
        let got = backfi_tag::psk::phase_to_bits(tag.modulation, est.z.arg());
        let phase = std::f64::consts::TAU * idx as f64 / tag.modulation.order() as f64;
        let want = backfi_tag::psk::phase_to_bits(tag.modulation, phase);
        raw_errs += got.iter().zip(&want).filter(|(a, b)| a != b).count();
        raw_bits += tag.modulation.bits_per_symbol();
    }
    let pre_fec_ber = if raw_bits == 0 {
        0.5
    } else {
        raw_errs as f64 / raw_bits as f64
    };
    let success = if frame_fits {
        res.payload.as_ref().map(|p| p == sent).unwrap_or(false)
    } else {
        // Streaming regime: judged by the raw symbol error rate.
        raw_bits >= 12 && pre_fec_ber < 0.02
    };
    Outcome::new(success, res.cancellation_db, res.metrics.symbol_snr_db)
}

/// A received packet and what the reader needs to decode it.
pub struct Capture {
    pub y: Vec<Complex>,
    pub h_env: Vec<Complex>,
    pub timeline: Timeline,
    pub sent: Vec<u8>,
    pub frame_fits: bool,
}

/// Run a trial's channel and tag stages (the part of `LinkSimulator::run`
/// before the reader) and keep the received packet. `None` when the tag
/// does not wake up.
pub fn capture(
    cfg: &LinkConfig,
    exc: &Excitation,
    x_scaled: &[Complex],
    seed: u64,
) -> Option<Capture> {
    let mut layers = Layers::default();
    let front = front_end(cfg, exc, x_scaled, seed, &mut layers, Doctor::None)?;
    Some(Capture {
        y: front.y,
        h_env: front.medium.h_env.clone(),
        timeline: front.timeline,
        sent: front.sent,
        frame_fits: front.frame_fits,
    })
}

/// The untimed reader-replay job: `BackscatterReader::decode` on a captured
/// packet, judged as its source trial was.
pub fn decode_packet(p: &Packet, x_scaled: &[Complex]) -> Outcome {
    let reader = BackscatterReader::new(p.cfg.reader);
    let decoded = reader.decode(x_scaled, &p.y, &p.h_env, &p.timeline, &p.cfg.tag);
    link_outcome(&decoded, &p.sent, &p.cfg.tag, p.frame_fits)
}

/// The front end's products. `LinkSimulator::run` keeps the tag's incident
/// signal and reflection stream alive until the trial ends, so the replay
/// does too: the allocator then sees the same heap during the reader stages.
struct FrontEnd {
    medium: BackscatterMedium,
    _incident: Vec<Complex>,
    _gamma: Vec<Complex>,
    y: Vec<Complex>,
    timeline: Timeline,
    sent: Vec<u8>,
    frame_fits: bool,
}

/// Medium, tag and propagation: `LinkSimulator::run` up to the reader.
fn front_end(
    cfg: &LinkConfig,
    exc: &Excitation,
    x_scaled: &[Complex],
    seed: u64,
    l: &mut Layers,
    doctor: Doctor,
) -> Option<FrontEnd> {
    assert!(cfg.impair.is_off(), "the replay does not model impairments");
    l.trials += 1;
    l.chan_calls += 2;
    l.medium_new_calls += 1;
    let mut medium = timed(&mut l.medium_new_ns, || {
        let m = BackscatterMedium::new(cfg.budget, MediumConfig::at_distance(cfg.distance_m), seed);
        std::hint::black_box(m.expected_backscatter_snr_db());
        m
    });
    let (sent, frame_fits) = timed(&mut l.other_ns, || payload(cfg, exc, seed));
    let incident = timed(&mut l.incident_ns, || {
        backfi_dsp::fir::filter(&medium.h_f, x_scaled)
    });
    l.incident_samples += incident.len() as u64;
    l.react_samples += incident.len() as u64;
    let (tag, gamma) = timed(&mut l.react_ns, || {
        let mut tag = Tag::new(cfg.excitation.tag_id, cfg.tag);
        tag.load_data(&sent);
        let gamma = tag.react(&incident);
        (tag, gamma)
    });
    if tag.state() == TagState::Listening || tag.state() == TagState::Sleep {
        return None;
    }
    l.woke += 1;
    l.chan_calls += 1;
    let n = exc.samples.len();
    let mut y = timed(&mut l.propagate_ns, || {
        medium.propagate(&exc.samples, &gamma)
    });
    l.propagate_samples += n as u64;
    y.truncate(n);
    if doctor == Doctor::Propagate {
        let i = (exc.detect_end + n) / 2;
        y[i] *= 2.0;
    }
    let timeline = Timeline::nominal(exc.detect_end, n, &cfg.tag);
    Some(FrontEnd {
        medium,
        _incident: incident,
        _gamma: gamma,
        y,
        timeline,
        sent,
        frame_fits,
    })
}

/// Result of one traced job.
pub struct Traced {
    pub outcome: Outcome,
    /// The outside SIC split disagreed with `SelfInterferenceCanceller::process`.
    pub sic_mismatch: bool,
}

/// Replay `LinkSimulator::run(seed)` stage by stage.
pub fn trial(
    sim: &LinkSimulator,
    x_scaled: &[Complex],
    seed: u64,
    l: &mut Layers,
    doctor: Doctor,
) -> Traced {
    let cfg = sim.config();
    let Some(front) = front_end(cfg, sim.excitation(), x_scaled, seed, l, doctor) else {
        return Traced {
            outcome: Outcome::failed(),
            sic_mismatch: false,
        };
    };
    let (decoded, sic_mismatch) = reader_stages(
        x_scaled,
        &front.y,
        &front.medium.h_env,
        &front.timeline,
        &cfg.tag,
        &cfg.reader,
        l,
        doctor,
    );
    let outcome = timed(&mut l.link_judge_ns, || {
        link_outcome(&decoded, &front.sent, &cfg.tag, front.frame_fits)
    });
    timed(&mut l.other_ns, || drop((decoded, front)));
    Traced {
        outcome,
        sic_mismatch,
    }
}

/// Replay `BackscatterReader::decode` on a captured packet stage by stage.
pub fn reader_only(p: &Packet, x_scaled: &[Complex], l: &mut Layers, doctor: Doctor) -> Traced {
    let (decoded, sic_mismatch) = reader_stages(
        x_scaled,
        &p.y,
        &p.h_env,
        &p.timeline,
        &p.cfg.tag,
        &p.cfg.reader,
        l,
        doctor,
    );
    let outcome = timed(&mut l.link_judge_ns, || {
        link_outcome(&decoded, &p.sent, &p.cfg.tag, p.frame_fits)
    });
    Traced {
        outcome,
        sic_mismatch,
    }
}

/// Clipped fraction and maximal clipped runs, as the canceller's ADC
/// reports them.
fn clip_scan(adc: &Adc, x: &[Complex]) -> (f64, Vec<Range<usize>>) {
    if x.is_empty() {
        return (0.0, Vec::new());
    }
    let mut ranges: Vec<Range<usize>> = Vec::new();
    let mut clipped = 0usize;
    for (i, v) in x.iter().enumerate() {
        if v.re.abs() >= adc.full_scale || v.im.abs() >= adc.full_scale {
            clipped += 1;
            match ranges.last_mut() {
                Some(r) if r.end == i => r.end = i + 1,
                _ => ranges.push(i..i + 1),
            }
        }
    }
    (clipped as f64 / x.len() as f64, ranges)
}

/// `SelfInterferenceCanceller::process` split into its four stages:
/// analog subtraction, AGC + ADC, digital training, digital apply.
fn sic_split(
    cfg: &CancellerConfig,
    analog: &AnalogCanceller,
    x: &[Complex],
    y: &[Complex],
    silent: Range<usize>,
    l: &mut Layers,
    doctor: Doctor,
) -> Option<CancellerReport> {
    l.sic_calls += 1;
    let input_si_db = timed(&mut l.sic_other_ns, || {
        stats::db(mean_power_auto(&y[silent.clone()]))
    });
    let after_analog = timed(&mut l.sic_analog_ns, || analog.cancel(x, y));
    let (digitized, adc_clip_fraction, clip_ranges) = timed(&mut l.sic_adc_ns, || {
        let rms = stats::rms(&after_analog);
        let full_scale = rms * 10f64.powf(cfg.agc_headroom_db / 20.0);
        let adc = Adc {
            bits: cfg.adc_bits,
            full_scale: full_scale.max(1e-30),
        };
        let (fraction, ranges) = clip_scan(&adc, &after_analog);
        let digitized = adc.convert(&after_analog);
        drop(after_analog);
        (digitized, fraction, ranges)
    });
    l.sic_samples += x.len() as u64;
    let mut samples = if cfg.digital_enabled {
        l.sic_train_calls += 1;
        let dig = timed(&mut l.sic_train_ns, || {
            DigitalCanceller::train(
                &x[silent.clone()],
                &digitized[silent.clone()],
                cfg.digital_taps,
                cfg.ridge,
            )
        })?;
        l.sic_apply_samples += x.len() as u64;
        timed(&mut l.sic_apply_ns, || {
            let samples = dig.cancel(x, &digitized);
            drop(digitized);
            samples
        })
    } else {
        digitized
    };
    if doctor == Doctor::SicApply {
        let i = silent.end + (samples.len() - silent.end) / 2;
        samples[i] *= 2.0;
    }
    let residual_db = timed(&mut l.sic_other_ns, || {
        let start = (silent.start + cfg.digital_taps).min(silent.end);
        stats::db(mean_power_auto(&samples[start..silent.end]))
    });
    Some(CancellerReport {
        cancellation_db: input_si_db - residual_db,
        input_si_db,
        residual_db,
        adc_clip_fraction,
        clip_ranges,
        samples,
    })
}

/// FNV-1a over every bit of a canceller result.
fn report_digest(r: &Option<CancellerReport>) -> u64 {
    let mut h = Fnv::new();
    if let Some(r) = r {
        for c in &r.samples {
            h.write_u64(c.re.to_bits());
            h.write_u64(c.im.to_bits());
        }
        for v in [
            r.input_si_db,
            r.residual_db,
            r.cancellation_db,
            r.adc_clip_fraction,
        ] {
            h.write_u64(v.to_bits());
        }
        for c in &r.clip_ranges {
            h.write_u64(c.start as u64);
            h.write_u64(c.end as u64);
        }
    } else {
        h.write_u64(u64::MAX);
    }
    h.finish()
}

fn fallback_window(silent: &Range<usize>) -> Range<usize> {
    (silent.start + silent.len() / 2)..silent.end
}

/// `BackscatterReader::decode` (single antenna) replayed stage by stage:
/// input checks, SIC (with the retrain and fallback ladder), channel
/// estimation, MRC and decode. The second value reports whether any SIC
/// split disagreed with `SelfInterferenceCanceller::process`; that check
/// runs after the replay so it does not disturb the replay's caches.
#[allow(clippy::too_many_arguments)]
fn reader_stages(
    x: &[Complex],
    y_rx: &[Complex],
    h_env: &[Complex],
    timeline: &Timeline,
    tag_cfg: &TagConfig,
    rc: &ReaderConfig,
    l: &mut Layers,
    doctor: Doctor,
) -> (Result<TagDecodeResult, ReaderError>, bool) {
    l.reader_calls += 1;
    let checked = timed(&mut l.reader_check_ns, || {
        if x.iter().any(|v| !v.is_finite()) || h_env.iter().any(|v| !v.is_finite()) {
            return Err(ReaderError::InvalidInput);
        }
        let bad_rx: Vec<usize> = y_rx
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_finite())
            .map(|(i, _)| i)
            .collect();
        if bad_rx.len() * 2 > y_rx.len() {
            return Err(ReaderError::InvalidInput);
        }
        let sanitized = (!bad_rx.is_empty()).then(|| {
            let mut y = y_rx.to_vec();
            for &i in &bad_rx {
                y[i] = Complex::ZERO;
            }
            y
        });
        Ok((bad_rx, sanitized))
    });
    let (bad_rx, sanitized) = match checked {
        Ok(v) => v,
        Err(e) => return (Err(e), false),
    };
    let y_rx: &[Complex] = sanitized.as_deref().unwrap_or(y_rx);
    let mut splits = Vec::new();
    let decoded = demodulate(
        x,
        y_rx,
        &bad_rx,
        h_env,
        timeline,
        tag_cfg,
        rc,
        l,
        doctor,
        &mut splits,
    );
    let sic_mismatch = timed(&mut l.verify_ns, || {
        splits.into_iter().any(|(window, digest)| {
            let reference =
                SelfInterferenceCanceller::new(rc.canceller, h_env).process(x, y_rx, window);
            report_digest(&reference) != digest
        })
    });
    (decoded, sic_mismatch)
}

/// The reader after its input checks. Every SIC split it runs is recorded in
/// `splits` as (training window, result digest).
#[allow(clippy::too_many_arguments)]
fn demodulate(
    x: &[Complex],
    y_rx: &[Complex],
    bad_rx: &[usize],
    h_env: &[Complex],
    timeline: &Timeline,
    tag_cfg: &TagConfig,
    rc: &ReaderConfig,
    l: &mut Layers,
    doctor: Doctor,
    splits: &mut Vec<(Range<usize>, u64)>,
) -> Result<TagDecodeResult, ReaderError> {
    let analog = timed(&mut l.sic_analog_ns, || {
        if rc.canceller.analog_enabled {
            AnalogCanceller::tuned(h_env, rc.canceller.analog)
        } else {
            AnalogCanceller::disabled()
        }
    });
    let mut sic = |window: Range<usize>, y: &[Complex], l: &mut Layers| {
        let split = sic_split(&rc.canceller, &analog, x, y, window.clone(), l, doctor);
        let digest = timed(&mut l.verify_ns, || report_digest(&split));
        splits.push((window, digest));
        split
    };

    // SIC with the reader's retrain and fallback ladder.
    let silent = &timeline.silent;
    let rep = match sic(silent.clone(), y_rx, l) {
        Some(rep) => {
            const DIVERGENCE_DB: f64 = 6.0;
            let q = silent.len() / 4;
            let head_start = silent.start + rc.canceller.digital_taps;
            let diverged = timed(&mut l.sic_other_ns, || {
                if q == 0 || head_start + q > silent.end - q {
                    return None;
                }
                let tail = (silent.end - q)..silent.end;
                let head_db = stats::db(mean_power_auto(&rep.samples[head_start..head_start + q]));
                let tail_db = stats::db(mean_power_auto(&rep.samples[tail.clone()]));
                (tail_db.is_finite() && head_db.is_finite() && tail_db > head_db + DIVERGENCE_DB)
                    .then_some((tail, tail_db))
            });
            match diverged {
                None => rep,
                Some((tail, tail_db)) => match sic(fallback_window(silent), y_rx, l) {
                    Some(rep2) => {
                        let tail2_db = timed(&mut l.sic_other_ns, || {
                            stats::db(mean_power_auto(&rep2.samples[tail]))
                        });
                        if tail2_db < tail_db {
                            rep2
                        } else {
                            rep
                        }
                    }
                    None => rep,
                },
            }
        }
        None => match sic(fallback_window(silent), y_rx, l) {
            Some(rep) => rep,
            None => return Err(ReaderError::CancellationFailed),
        },
    };

    let noise_power = stats::undb(rep.residual_db);
    const CLIP_RUN_MIN: usize = 16;
    let flag_prefix = timed(&mut l.reader_check_ns, || {
        let clip: Vec<&Range<usize>> = rep
            .clip_ranges
            .iter()
            .filter(|r| r.len() >= CLIP_RUN_MIN)
            .collect();
        if bad_rx.is_empty() && clip.is_empty() {
            return None;
        }
        let mut flags = vec![0u32; y_rx.len() + 1];
        for &i in bad_rx {
            flags[i] = 1;
        }
        for r in clip {
            for f in &mut flags[r.clone()] {
                *f = 1;
            }
        }
        let mut acc = 0u32;
        for f in flags.iter_mut() {
            let v = *f;
            *f = acc;
            acc += v;
        }
        Some(flags)
    });
    let y = rep.samples;

    l.chanest_calls += 1;
    let est = timed(&mut l.chanest_ns, || {
        let offsets = |step: isize, span: isize| {
            let mut v: Vec<isize> = vec![0];
            let mut off = step;
            while off <= span {
                v.push(off);
                v.push(-off);
                off += step;
            }
            v
        };
        let estimate = |search: &[isize]| {
            estimate_h_fb(
                x,
                &y,
                timeline.preamble.start,
                tag_cfg.preamble_us,
                rc.fb_taps,
                search,
                rc.ridge,
            )
        };
        estimate(&offsets(20, rc.timing_span as isize)).or_else(|| {
            let span = (rc.timing_span as isize).max(20) * 3;
            estimate(&offsets(10, span))
        })
    });
    let Some(est) = est else {
        l.chanest_fail += 1;
        return Err(ReaderError::ChannelEstimationFailed);
    };
    let timeline = timeline.shifted(est.offset);

    let symbols = timed(&mut l.mrc_ns, || {
        // The last users of the cleaned samples and the erasure flags: free
        // them here, on every return path.
        let (y, flag_prefix) = (y, flag_prefix);
        let reference = backfi_dsp::fir::filter(&est.h_fb, x);
        let sps = tag_cfg.samples_per_symbol();
        let nsym = timeline.payload.len() / sps;
        if nsym == 0 {
            return Err(ReaderError::NoSymbols);
        }
        let guard = rc.fb_taps;
        let mut symbols = Vec::with_capacity(nsym);
        for i in 0..nsym {
            let s = timeline.payload.start + i * sps;
            let e = (s + sps).min(y.len());
            if e <= s + guard {
                break;
            }
            if let Some(p) = &flag_prefix {
                let usable = e - (s + guard);
                let flagged = (p[e] - p[s + guard]) as usize;
                if flagged * 4 >= usable {
                    symbols.push(SymbolEstimate::erasure());
                    continue;
                }
            }
            let estimate = if rc.use_zero_forcing {
                zf_symbol(&y[s..e], &reference[s..e], guard).map(|z| SymbolEstimate {
                    z,
                    ref_energy: 1.0,
                    noise_var: noise_power,
                })
            } else {
                mrc_symbol(&y[s..e], &reference[s..e], guard, noise_power)
            };
            match estimate {
                Some(v) if v.z.is_finite() => symbols.push(v),
                Some(_) => symbols.push(SymbolEstimate::erasure()),
                None => break,
            }
        }
        if symbols.len() <= PILOT_SYMBOLS {
            return Err(ReaderError::NoSymbols);
        }
        Ok(symbols)
    });
    l.mrc_samples += timeline.payload.len() as u64;
    let mut symbols = symbols?;

    l.decode_calls += 1;
    l.decode_bits +=
        ((symbols.len() - PILOT_SYMBOLS) * tag_cfg.modulation.bits_per_symbol()) as u64;
    let (payload, decoded_bits, metrics) = timed(&mut l.decode_ns, || {
        let pilot: Complex = symbols[..PILOT_SYMBOLS].iter().map(|s| s.z).sum();
        let derot = if pilot.abs() > 0.0 {
            Complex::exp_j(-pilot.arg())
        } else {
            Complex::ONE
        };
        for s in symbols.iter_mut() {
            s.z *= derot;
        }
        let mut acc = Complex::ZERO;
        for s in symbols.iter() {
            let bits = backfi_tag::psk::phase_to_bits(tag_cfg.modulation, s.z.arg());
            let ideal = Complex::exp_j(backfi_tag::psk::bits_to_phase(tag_cfg.modulation, &bits));
            acc += s.z * ideal.conj() * s.ref_energy;
        }
        if acc.abs() > 0.0 {
            let refine = Complex::exp_j(-acc.arg());
            for s in symbols.iter_mut() {
                s.z *= refine;
            }
        }
        decode_symbols(
            &symbols[PILOT_SYMBOLS..],
            tag_cfg.modulation,
            tag_cfg.code_rate,
        )
    });
    if payload.is_ok() {
        l.crc_ok += 1;
    }
    Ok(TagDecodeResult {
        payload,
        decoded_bits,
        metrics,
        symbols,
        cancellation_db: rep.cancellation_db,
        residual_db: rep.residual_db,
        h_fb: est.h_fb,
        timing_offset: est.offset,
    })
}

/// Replay `ClientPhyExperiment::run(mcs, 1, psdu_bytes, seed)` stage by
/// stage: WiFi transmit, client channel, and WiFi receive with the tag off
/// and on.
pub fn client(
    exp: &ClientPhyExperiment,
    job: &ClientJob,
    psdu_bytes: usize,
    l: &mut Layers,
) -> ClientOutcome {
    let mcs = job.mcs;
    let (a_c, a_tag, noise) = timed(&mut l.other_ns, || {
        let client_distance_m = exp.distance_for(mcs, 3.0);
        let d_tc = (client_distance_m - exp.tag_distance_m).abs().max(0.1);
        let a_c = exp.budget.wifi_amplitude(client_distance_m) * exp.budget.tx_power().sqrt();
        let leg = |d: f64| dbm_to_lin(-exp.budget.tag_scatter_leg_db(d)).sqrt();
        let a_tag = leg(exp.tag_distance_m) * leg(d_tc) * exp.budget.tx_power().sqrt();
        (a_c, a_tag, exp.budget.noise_power())
    });
    let mut rng = SplitMix64::new(job.seed);
    let psdu: Vec<u8> = (0..psdu_bytes).map(|i| i as u8).collect();
    // The experiment's first packet uses scrambler seed (0x30 + 0) | 1.
    let pkt = timed(&mut l.wifi_tx_ns, || {
        WifiTransmitter::new().transmit(&psdu, mcs, 0x31)
    });
    l.wifi_tx_samples += pkt.samples.len() as u64;
    let rx = timed(&mut l.wifi_rx_ns, WifiReceiver::default);
    let direct = timed(&mut l.network_channel_ns, || {
        let h_c = scaled(&MultipathProfile::indoor_los().realize(&mut rng), a_c);
        backfi_dsp::fir::filter(&h_c, &pkt.samples)
    });
    let mut result = [(false, f64::NEG_INFINITY); 2];
    for (tag_on, slot) in [false, true].into_iter().zip(result.iter_mut()) {
        let y = timed(&mut l.network_channel_ns, || {
            let mut y = direct.clone();
            if tag_on {
                let h_f = MultipathProfile::indoor_los().realize(&mut rng);
                let h_tc = MultipathProfile::indoor_nlos().realize(&mut rng);
                let z = backfi_dsp::fir::filter(&h_f, &pkt.samples);
                let sps = exp.tag_cfg.samples_per_symbol();
                let order = exp.tag_cfg.modulation.order();
                let modded: Vec<Complex> = z
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        let idx = ((i / sps) * 7 + 3) % order;
                        v * Complex::exp_j(std::f64::consts::TAU * idx as f64 / order as f64)
                    })
                    .collect();
                let scattered = backfi_dsp::fir::filter(&h_tc, &modded);
                for (a, b) in y.iter_mut().zip(&scattered) {
                    *a += b.scale(a_tag);
                }
            }
            add_noise(&mut rng, &mut y, noise);
            y
        });
        l.network_channel_samples += y.len() as u64;
        l.wifi_rx_calls += 1;
        l.wifi_rx_samples += y.len() as u64;
        let got = timed(&mut l.wifi_rx_ns, || rx.receive(&y));
        *slot = match got {
            Ok(got) => {
                let ok = got.psdu == psdu;
                l.wifi_rx_ok += ok as u64;
                (ok, got.snr_db)
            }
            Err(_) => (false, f64::NEG_INFINITY),
        };
    }
    let finite_mean = |v: f64| {
        let f: Vec<f64> = [v].into_iter().filter(|x| x.is_finite()).collect();
        stats::mean(&f)
    };
    ClientOutcome {
        ok_off: result[0].0,
        ok_on: result[1].0,
        snr_off_db: finite_mean(result[0].1).to_bits(),
        snr_on_db: finite_mean(result[1].1).to_bits(),
    }
}
