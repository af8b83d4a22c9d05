//! Ablations of BackFi's design choices (DESIGN.md §5): each test removes
//! one ingredient and verifies the failure mode the paper predicts.

use backfi::prelude::*;

fn base(distance: f64) -> LinkConfig {
    let mut cfg = LinkConfig::at_distance(distance);
    cfg.excitation.wifi_payload_bytes = 1200;
    cfg
}

#[test]
fn zero_forcing_combiner_underperforms_mrc() {
    // §4.3.2: dividing by the wideband reference "works poorly because it
    // will also divide the noise term … and in many scenarios amplify it."
    let mut cfg = base(3.0);
    cfg.tag.symbol_rate_hz = 500e3;
    let mrc = LinkSimulator::new(cfg.clone()).run(11);

    cfg.reader.use_zero_forcing = true;
    let zf = LinkSimulator::new(cfg).run(11);

    assert!(mrc.success, "MRC link should work at 3 m");
    // ZF either fails outright or loses several dB of symbol SNR.
    if zf.success {
        assert!(
            mrc.measured_snr_db > zf.measured_snr_db + 3.0,
            "MRC {} dB vs ZF {} dB",
            mrc.measured_snr_db,
            zf.measured_snr_db
        );
    }
}

#[test]
fn disabling_analog_stage_floods_the_adc() {
    let mut cfg = base(1.0);
    cfg.reader.canceller.analog_enabled = false;
    let rep = LinkSimulator::new(cfg).run(13);
    // With ~0 dBm of leakage hitting the AGC, the quantization floor buries
    // the backscatter: the link must fail or lose most of its SNR.
    let ok_base = LinkSimulator::new(base(1.0)).run(13);
    assert!(ok_base.success);
    assert!(
        !rep.success || rep.measured_snr_db < ok_base.measured_snr_db - 6.0,
        "analog-less link unexpectedly healthy: {:?} / {} dB",
        rep.success,
        rep.measured_snr_db
    );
}

#[test]
fn disabling_digital_stage_leaves_residue() {
    // Individual seeds can fade; demand that across several deployments the
    // two-stage design works at least twice while analog-only never does.
    let mut ok_two_stage = 0;
    let mut ok_analog_only = 0;
    for seed in [15u64, 16, 17, 18] {
        if LinkSimulator::new(base(2.0)).run(seed).success {
            ok_two_stage += 1;
        }
        let mut cfg = base(2.0);
        cfg.reader.canceller.digital_enabled = false;
        if LinkSimulator::new(cfg).run(seed).success {
            ok_analog_only += 1;
        }
    }
    assert!(ok_two_stage >= 2, "two-stage links: {ok_two_stage}/4");
    assert_eq!(
        ok_analog_only, 0,
        "analog-only cancellation (~40 dB) cannot expose a −90 dBm tag signal"
    );
}

#[test]
fn coding_rescues_marginal_links() {
    // At ranges where raw symbol errors occur, the convolutional code is
    // the difference between a clean frame and a lost one: count frames
    // that pass CRC although more than 1e-3 of their symbols were wrong.
    // With the Box–Muller generator 228 of 300 such trials (seeds 0..100)
    // were rescued; 78 of 120 is that rate less three binomial standard
    // deviations.
    let mut rescued = 0;
    for d in [4.0, 4.5, 5.0] {
        let mut cfg = base(d);
        cfg.tag.symbol_rate_hz = 1e6;
        cfg.tag.modulation = TagModulation::Qpsk;
        let sim = LinkSimulator::new(cfg);
        rescued += (0..40)
            .map(|seed| sim.run(seed))
            .filter(|rep| rep.success && rep.pre_fec_ber > 1e-3)
            .count();
    }
    assert!(
        rescued >= 78,
        "FEC visibly repaired symbol errors in only {rescued}/120 marginal links"
    );
}

#[test]
fn short_silent_period_is_enough() {
    // §4.2: "this small silent period is sufficient for the reader to
    // estimate the self-interference channel" — 16 µs = 320 samples against
    // a 28-tap estimate.
    let rep = LinkSimulator::new(base(1.0)).run(19);
    assert!(rep.success);
    assert!(rep.cancellation_db > 70.0);
}

#[test]
fn sixteen_psk_needs_more_snr_than_bpsk() {
    // Find a range where BPSK works but 16-PSK does not (same symbol rate) —
    // the modulation ladder that drives rate adaptation.
    let mut bpsk_ok_psk_fails = false;
    for d in [3.0, 4.0, 5.0] {
        let mut cfg_b = base(d);
        cfg_b.tag.modulation = TagModulation::Bpsk;
        cfg_b.tag.symbol_rate_hz = 1e6;
        let b = LinkSimulator::new(cfg_b).run(23);

        let mut cfg_p = base(d);
        cfg_p.tag.modulation = TagModulation::Psk16;
        cfg_p.tag.symbol_rate_hz = 1e6;
        let p = LinkSimulator::new(cfg_p).run(23);

        if b.success && !p.success {
            bpsk_ok_psk_fails = true;
            break;
        }
    }
    assert!(bpsk_ok_psk_fails, "no range separated BPSK from 16-PSK");
}
