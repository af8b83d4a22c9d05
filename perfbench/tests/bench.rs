//! The benchmark's own checks, on a small plan with short excitations.
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use backfi_obs::json::{parse, Json};
use backfi_perfbench::jobs::{Plan, Workload};
use backfi_perfbench::replay::Doctor;
use backfi_perfbench::report::{result_line, END_TO_END, PER_LAYER};
use backfi_perfbench::{run, Options, RunResult};

fn opts(workload: Workload, seed: u64, threads: usize, trace: bool, doctor: Doctor) -> Options {
    Options {
        workload,
        seed,
        // One pass always runs in full, so a tiny deadline means "one pass".
        seconds: 0.01,
        trace,
        threads,
        plan: Plan::tiny(),
        doctor,
    }
}

fn untraced(workload: Workload, seed: u64, threads: usize) -> RunResult {
    run(&opts(workload, seed, threads, false, Doctor::None))
}

#[test]
fn results_are_deterministic_at_one_and_two_threads() {
    for w in Workload::ALL {
        let one = untraced(w, 7, 1);
        let two = untraced(w, 7, 2);
        let again = untraced(w, 7, 2);
        for r in [&one, &two, &again] {
            assert!(r.correct, "{}: {:?}", w.name(), r.notes);
            assert_eq!(r.failed, 0, "{}", w.name());
        }
        assert_eq!(one.digest, two.digest, "{}: 1 vs 2 threads", w.name());
        assert_eq!(two.digest, again.digest, "{}: rerun", w.name());
        assert_eq!(one.decode_frac.to_bits(), two.decode_frac.to_bits());
        assert_eq!(
            one.median_snr_db.to_bits(),
            two.median_snr_db.to_bits(),
            "{}",
            w.name()
        );
    }
}

#[test]
fn the_seed_changes_the_generated_inputs() {
    for w in Workload::ALL {
        let a = untraced(w, 1, 2);
        let b = untraced(w, 2, 2);
        assert_ne!(
            a.digest,
            b.digest,
            "{}: seeds 1 and 2 gave one input set",
            w.name()
        );
    }
}

#[test]
fn replay_matches_the_program_when_untouched() {
    for w in Workload::ALL {
        let r = run(&opts(w, 3, 2, true, Doctor::None));
        assert!(r.correct, "{}: {:?}", w.name(), r.notes);
        let get = |name: &str| {
            r.metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("metric printed")
        };
        assert_eq!(get("trace.jobs"), r.pass_len as f64, "one traced pass");
        assert_eq!(get("trace.fidelity_fail"), 0.0);
        // The traced pass covers the same jobs however fast they run, so its
        // counts and fractions do not depend on the thread count.
        let one = run(&opts(w, 3, 1, true, Doctor::None));
        for name in [
            "chan.calls",
            "sic.calls",
            "reader.calls",
            "tag.wake_frac",
            "reader.crc_ok_frac",
            "wifi.rx_ok_frac",
        ] {
            let at_one = one.metrics.iter().find(|m| m.name == name).unwrap();
            assert_eq!(at_one.value, get(name), "{}: {name}", w.name());
        }
        match w {
            Workload::RangeSweep => assert!(get("chan.propagate_share") > 0.0),
            Workload::ReaderReplay => {
                assert_eq!(get("chan.calls"), 0.0, "no channel work in the timed loop");
                assert!(get("sic.calls") > 0.0);
            }
            Workload::ClientCoexistence => {
                assert_eq!(get("sic.calls"), 0.0);
                assert_eq!(get("reader.calls"), 0.0);
                assert!(get("wifi.rx_ns_per_sample") > 0.0);
            }
        }
    }
}

#[test]
fn fidelity_gate_fires_on_a_doctored_stage() {
    for (w, doctor) in [
        (Workload::RangeSweep, Doctor::Propagate),
        (Workload::RangeSweep, Doctor::SicApply),
        (Workload::ReaderReplay, Doctor::SicApply),
    ] {
        let r = run(&opts(w, 3, 2, true, doctor));
        assert!(!r.correct, "{} with {doctor:?} passed the gate", w.name());
        assert!(r.failed > 0);
    }
}

/// `(name, unit)` pairs of one metric list in BENCHMARK.json.
fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    let as_owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), as_owned(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), as_owned(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    // What a run prints carries exactly those names and units.
    for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let r = run(&opts(
            Workload::ClientCoexistence,
            5,
            2,
            trace,
            Doctor::None,
        ));
        let line = result_line(r.correct, r.attempted, r.failed, &r.metrics);
        let printed = parse(&line).expect("result line is JSON");
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(printed.get(key).is_some(), "missing {key}");
        }
        let metrics = printed.get("metrics").expect("metrics");
        let Json::Obj(entries) = metrics else {
            panic!("metrics is not an object")
        };
        assert_eq!(entries.len(), table.len());
        for &(name, unit) in table {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} not printed"));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            assert!(m.get("value").and_then(Json::as_f64).is_some());
        }
    }
}
