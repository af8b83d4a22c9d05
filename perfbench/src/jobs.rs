//! Workload inputs. Everything a job receives is generated here from the
//! workload seed; set-up (excitation synthesis, simulator construction and
//! packet capture) is timed by the caller.

use crate::replay;
use backfi_chan::impair::Impairments;
use backfi_core::excitation::{Excitation, ExcitationConfig};
use backfi_core::link::{LinkConfig, LinkSimulator};
use backfi_core::network::{fig13_tag_config, ClientPhyExperiment};
use backfi_core::sweep::Executor;
use backfi_dsp::rng::SplitMix64;
use backfi_dsp::Complex;
use backfi_reader::Timeline;
use backfi_tag::config::{TagConfig, TAG_CODE_RATES, TAG_SYMBOL_RATES};
use backfi_tag::TagModulation;
use backfi_wifi::{Mcs, WifiTransmitter};
use std::sync::Arc;
use std::time::Instant;

/// The three named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `LinkSimulator::run` trials over fig08/09/10 grid cells.
    RangeSweep,
    /// `BackscatterReader::decode` on packets captured during set-up.
    ReaderReplay,
    /// Fig. 13's client experiment, one packet per job.
    ClientCoexistence,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RangeSweep,
        Workload::ReaderReplay,
        Workload::ClientCoexistence,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RangeSweep => "range_sweep",
            Workload::ReaderReplay => "reader_replay",
            Workload::ClientCoexistence => "client_coexistence",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Fig. 8 distances; the Fig. 9 and Fig. 10 ranges are subsets of these.
pub const SWEEP_DISTANCES: [f64; 8] = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
/// Fig. 8's two tag preamble lengths, µs.
pub const PREAMBLES_US: [f64; 2] = [32.0, 96.0];
/// Distances the reader-replay packets are captured at.
pub const REPLAY_DISTANCES: [f64; 6] = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0];
/// Tag symbol rates the reader-replay packets use (100 kSPS–2.5 MSPS).
pub const REPLAY_SYMBOL_RATES: [f64; 5] = [100e3, 500e3, 1e6, 2e6, 2.5e6];
/// Attempts at finding a seed whose trial wakes the tag before a replay
/// stratum is given up.
const WAKE_ATTEMPTS: u64 = 32;

/// How much work one pass of each workload holds.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Full-budget excitation: WiFi payload bytes at 6 Mbit/s (≈4 ms).
    pub long_payload_bytes: usize,
    /// Short excitation: WiFi payload bytes at 24 Mbit/s.
    pub short_payload_bytes: usize,
    /// Tag configurations per (distance, preamble, symbol rate) stratum of
    /// the range sweep.
    pub sweep_configs_per_stratum: usize,
    /// Trials per drawn range-sweep cell.
    pub sweep_trials_per_cell: usize,
    /// Distances the range sweep draws from.
    pub sweep_distances: &'static [f64],
    /// Packets captured per (distance, symbol rate) replay stratum, for the
    /// short and the long excitation. Unequal counts keep the latency median
    /// inside one length's cluster instead of in the gap between the two.
    pub replay_packets_per_stratum: [usize; 2],
    /// Distances the reader replay captures at.
    pub replay_distances: &'static [f64],
    /// Client packets per MCS (twice this at 54 Mbit/s).
    pub client_packets_per_mcs: usize,
    /// Client PSDU bytes.
    pub client_psdu_bytes: usize,
}

impl Plan {
    /// The benchmark's plan.
    pub fn full() -> Plan {
        Plan {
            long_payload_bytes: 3000,
            short_payload_bytes: 1200,
            sweep_configs_per_stratum: 2,
            sweep_trials_per_cell: 3,
            sweep_distances: &SWEEP_DISTANCES,
            replay_packets_per_stratum: [2, 3],
            replay_distances: &REPLAY_DISTANCES,
            client_packets_per_mcs: 64,
            client_psdu_bytes: 1500,
        }
    }

    /// A small plan with short excitations, for the benchmark's own tests.
    pub fn tiny() -> Plan {
        Plan {
            long_payload_bytes: 800,
            short_payload_bytes: 400,
            sweep_configs_per_stratum: 1,
            sweep_trials_per_cell: 1,
            sweep_distances: &[0.5, 3.0, 7.0],
            replay_packets_per_stratum: [1, 1],
            replay_distances: &[0.5, 2.0],
            client_packets_per_mcs: 2,
            client_psdu_bytes: 200,
        }
    }
}

/// The link configuration of one grid cell, impairments forced off (the
/// replay does not model them).
pub fn cell_config(distance_m: f64, tag: TagConfig, excitation: &ExcitationConfig) -> LinkConfig {
    let mut cfg = LinkConfig::at_distance(distance_m);
    cfg.tag = tag;
    cfg.excitation = excitation.clone();
    cfg.impair = Impairments::off();
    cfg
}

/// Full-budget excitation: `bytes` at 6 Mbit/s, as the figure binaries use.
pub fn long_excitation(bytes: usize) -> ExcitationConfig {
    ExcitationConfig {
        mcs: Mcs::Mbps6,
        wifi_payload_bytes: bytes,
        ..ExcitationConfig::default()
    }
}

/// Short excitation: `bytes` at 24 Mbit/s.
pub fn short_excitation(bytes: usize) -> ExcitationConfig {
    ExcitationConfig {
        mcs: Mcs::Mbps24,
        wifi_payload_bytes: bytes,
        ..ExcitationConfig::default()
    }
}

/// The six (modulation, code rate) pairs of one symbol rate.
fn mod_code_pairs() -> Vec<(TagModulation, backfi_coding::CodeRate)> {
    TagModulation::ALL
        .into_iter()
        .flat_map(|m| TAG_CODE_RATES.into_iter().map(move |c| (m, c)))
        .collect()
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// One range-sweep job: a cell and its trial seed.
#[derive(Clone, Copy, Debug)]
pub struct SweepJob {
    pub cell: usize,
    pub seed: u64,
}

/// A received packet captured for the reader replay, with what it takes to
/// rerun the `LinkSimulator::run` trial it came from.
pub struct Packet {
    /// Index into [`Prepared::ReaderReplay::excitations`].
    pub excitation: usize,
    pub cfg: LinkConfig,
    pub seed: u64,
    pub y: Vec<Complex>,
    pub h_env: Vec<Complex>,
    pub timeline: Timeline,
    pub sent: Vec<u8>,
    pub frame_fits: bool,
}

/// One client job: an MCS and its experiment seed.
#[derive(Clone, Copy, Debug)]
pub struct ClientJob {
    pub mcs: Mcs,
    pub seed: u64,
}

/// Shared excitation with its TX-scaled copy (the reader's clean reference).
pub struct ScaledExcitation {
    pub exc: Arc<Excitation>,
    pub x_scaled: Vec<Complex>,
}

/// A workload after set-up: the job list of one pass and what it needs.
pub enum Prepared {
    RangeSweep {
        /// The one excitation every cell shares.
        excitation: ScaledExcitation,
        sims: Vec<LinkSimulator>,
        jobs: Vec<SweepJob>,
    },
    ReaderReplay {
        excitations: Vec<ScaledExcitation>,
        packets: Vec<Packet>,
    },
    ClientCoexistence {
        exp: ClientPhyExperiment,
        jobs: Vec<ClientJob>,
        psdu_bytes: usize,
        /// Baseband samples of one packet at each MCS (index of `Mcs::ALL`).
        packet_samples: Vec<usize>,
    },
}

impl Prepared {
    /// Jobs in one pass.
    pub fn pass_len(&self) -> usize {
        match self {
            Prepared::RangeSweep { jobs, .. } => jobs.len(),
            Prepared::ReaderReplay { packets, .. } => packets.len(),
            Prepared::ClientCoexistence { jobs, .. } => jobs.len(),
        }
    }

    /// 20 MHz baseband samples job `j` of a pass carries.
    pub fn job_samples(&self, j: usize) -> usize {
        match self {
            Prepared::RangeSweep { sims, jobs, .. } => {
                sims[jobs[j].cell].excitation().samples.len()
            }
            Prepared::ReaderReplay { packets, .. } => packets[j].y.len(),
            Prepared::ClientCoexistence {
                jobs,
                packet_samples,
                ..
            } => {
                // The packet is received twice: tag off and tag on.
                2 * packet_samples[mcs_index(jobs[j].mcs)]
            }
        }
    }

    /// The TX-scaled excitation job `j` of a link workload decodes against.
    pub fn x_scaled(&self, j: usize) -> &[Complex] {
        match self {
            Prepared::RangeSweep { excitation, .. } => &excitation.x_scaled,
            Prepared::ReaderReplay {
                excitations,
                packets,
            } => &excitations[packets[j].excitation].x_scaled,
            Prepared::ClientCoexistence { .. } => &[],
        }
    }
}

fn mcs_index(mcs: Mcs) -> usize {
    Mcs::ALL
        .iter()
        .position(|&m| m == mcs)
        .expect("every Mcs is in Mcs::ALL")
}

/// Synthesize an excitation without the process-wide cache (so every set-up
/// pays synthesis) and check it equals the cached copy the simulators share.
/// Also returns the synthesis wall time, ms.
fn build_excitation(cfg: &ExcitationConfig) -> (ScaledExcitation, f64) {
    let t = Instant::now();
    let built = Excitation::build(cfg.clone());
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let exc = Excitation::cached(cfg);
    assert!(
        exc.samples == built.samples && exc.detect_end == built.detect_end,
        "cached excitation differs from a fresh synthesis"
    );
    let a = backfi_chan::budget::LinkBudget::default().tx_power().sqrt();
    let x_scaled = exc.samples.iter().map(|&v| v * a).collect();
    (ScaledExcitation { exc, x_scaled }, build_ms)
}

/// Build a workload's pass from the seed. Also returns the wall time of the
/// uncached full-budget excitation synthesis, ms, when the workload makes
/// one (the short replay excitation is not timed, so every reported build
/// is of the one excitation length all synthesizing workloads share).
pub fn prepare(w: Workload, seed: u64, plan: &Plan, exec: &Executor) -> (Prepared, Option<f64>) {
    let mut build_ms = None;
    let mut rng = SplitMix64::new(SplitMix64::derive(seed, w as u64));
    let prepared = match w {
        Workload::RangeSweep => {
            let exc_cfg = long_excitation(plan.long_payload_bytes);
            let (excitation, ms) = build_excitation(&exc_cfg);
            build_ms = Some(ms);
            // Each (distance, preamble) group holds every (modulation, code
            // rate) pair equally often; the seed decides which symbol rate
            // each pair lands on.
            let pairs = mod_code_pairs();
            let mut cells = Vec::new();
            for &distance in plan.sweep_distances {
                for &preamble_us in &PREAMBLES_US {
                    let offset = rng.below(pairs.len() as u64) as usize;
                    let mut k = 0;
                    for &symbol_rate_hz in &TAG_SYMBOL_RATES {
                        for _ in 0..plan.sweep_configs_per_stratum {
                            let (modulation, code_rate) = pairs[(offset + k) % pairs.len()];
                            k += 1;
                            let tag = TagConfig {
                                modulation,
                                code_rate,
                                symbol_rate_hz,
                                preamble_us,
                            };
                            cells.push(cell_config(distance, tag, &exc_cfg));
                        }
                    }
                }
            }
            let sims: Vec<LinkSimulator> = cells.into_iter().map(LinkSimulator::new).collect();
            let mut jobs: Vec<SweepJob> = (0..sims.len() * plan.sweep_trials_per_cell)
                .map(|j| SweepJob {
                    cell: j / plan.sweep_trials_per_cell,
                    seed: SplitMix64::derive(seed, j as u64),
                })
                .collect();
            shuffle(&mut jobs, &mut rng);
            Prepared::RangeSweep {
                excitation,
                sims,
                jobs,
            }
        }
        Workload::ReaderReplay => {
            let (short, _) = build_excitation(&short_excitation(plan.short_payload_bytes));
            let (long, ms) = build_excitation(&long_excitation(plan.long_payload_bytes));
            build_ms = Some(ms);
            let excitations = vec![short, long];
            // Per excitation length, with n packets per (distance, rate)
            // stratum, packet c of stratum (d, r) takes pair
            // p0 + n(d + r) + c: every rate decodes each (modulation, code
            // rate) pair equally often, and every distance nearly so, so
            // the cost and decode mix is the same for every seed. Preambles
            // alternate over d + r. The seed picks p0, the preamble phase,
            // the trial seeds and the order.
            let pairs = mod_code_pairs();
            let mut specs = Vec::new();
            for (excitation, ex) in excitations.iter().enumerate() {
                let n = plan.replay_packets_per_stratum[excitation];
                let pair0 = rng.below(pairs.len() as u64) as usize;
                let preamble0 = rng.below(PREAMBLES_US.len() as u64) as usize;
                for (d, &distance) in plan.replay_distances.iter().enumerate() {
                    for (r, &symbol_rate_hz) in REPLAY_SYMBOL_RATES.iter().enumerate() {
                        let preamble_us = PREAMBLES_US[(preamble0 + d + r) % PREAMBLES_US.len()];
                        for c in 0..n {
                            let (modulation, code_rate) =
                                pairs[(pair0 + n * (d + r) + c) % pairs.len()];
                            let tag = TagConfig {
                                modulation,
                                code_rate,
                                symbol_rate_hz,
                                preamble_us,
                            };
                            let cfg = cell_config(distance, tag, &ex.exc.config);
                            specs.push((excitation, cfg, rng.next_u64()));
                        }
                    }
                }
            }
            let captured = exec.run(&specs, |_, (excitation, cfg, base)| {
                let ex = &excitations[*excitation];
                (0..WAKE_ATTEMPTS).find_map(|attempt| {
                    let seed = SplitMix64::derive(*base, attempt);
                    replay::capture(cfg, &ex.exc, &ex.x_scaled, seed).map(|c| Packet {
                        excitation: *excitation,
                        cfg: cfg.clone(),
                        seed,
                        y: c.y,
                        h_env: c.h_env,
                        timeline: c.timeline,
                        sent: c.sent,
                        frame_fits: c.frame_fits,
                    })
                })
            });
            let mut packets: Vec<Packet> = captured.into_iter().flatten().collect();
            shuffle(&mut packets, &mut rng);
            Prepared::ReaderReplay {
                excitations,
                packets,
            }
        }
        Workload::ClientCoexistence => {
            let exp = ClientPhyExperiment {
                budget: backfi_chan::budget::LinkBudget::default(),
                tag_distance_m: 0.25,
                tag_cfg: fig13_tag_config(),
            };
            // Packet lengths per MCS, from the transmitter itself.
            let tx = WifiTransmitter::new();
            let psdu = vec![0u8; plan.client_psdu_bytes];
            let packet_samples = Mcs::ALL
                .iter()
                .map(|&m| tx.transmit(&psdu, m, 0x31).samples.len())
                .collect();
            // Job time rises with packet length, so the MCS form clusters
            // of latency. Twice the packets at 54 Mbit/s put the latency
            // median in the middle of the 24 Mbit/s cluster; with equal
            // counts it falls in the gap between 24 and 18 Mbit/s.
            let mut jobs: Vec<ClientJob> = Mcs::ALL
                .iter()
                .flat_map(|&mcs| {
                    let n = plan.client_packets_per_mcs * if mcs == Mcs::Mbps54 { 2 } else { 1 };
                    std::iter::repeat_n(mcs, n)
                })
                .enumerate()
                .map(|(j, mcs)| ClientJob {
                    mcs,
                    seed: SplitMix64::derive(seed, j as u64),
                })
                .collect();
            shuffle(&mut jobs, &mut rng);
            Prepared::ClientCoexistence {
                exp,
                jobs,
                psdu_bytes: plan.client_psdu_bytes,
                packet_samples,
            }
        }
    };
    (prepared, build_ms)
}

/// Run every captured packet's source trial through `LinkSimulator::run`.
/// Returns each packet's expected outcome (the trial's own report; empty
/// for the other workloads) and the number of packets that
/// `BackscatterReader::decode` does not land on it for (the capture would
/// then time a different program). Set-up is deterministic, so the outcomes
/// hold for every later set-up of the same seed.
pub fn verify_capture(prepared: &Prepared, exec: &Executor) -> (Vec<replay::Outcome>, usize) {
    let Prepared::ReaderReplay {
        packets,
        excitations,
    } = prepared
    else {
        return (Vec::new(), 0);
    };
    let checked: Vec<(replay::Outcome, bool)> = exec.run(packets, |_, p| {
        let expected = replay::Outcome::of_report(&LinkSimulator::new(p.cfg.clone()).run(p.seed));
        let got = replay::decode_packet(p, &excitations[p.excitation].x_scaled);
        (expected, got == expected)
    });
    let mismatched = checked.iter().filter(|(_, same)| !same).count();
    (checked.into_iter().map(|(e, _)| e).collect(), mismatched)
}
