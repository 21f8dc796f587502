//! Runs the real binary, with its real child processes, at `--smoke` size and
//! checks what it prints against what `--list` promises.

use std::process::{Command, Output};

fn fftperf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fftperf"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("output is UTF-8")
}

/// The names under each heading of `--list`: workloads, end-to-end metrics,
/// per-layer metrics.
fn listed() -> [Vec<String>; 3] {
    let out = fftperf(&["--list"]);
    assert!(out.status.success());
    let mut sections: [Vec<String>; 3] = Default::default();
    let mut at = None;
    for line in stdout(&out).lines() {
        match line {
            "workloads" => at = Some(0),
            "end to end" => at = Some(1),
            "per layer" => at = Some(2),
            _ => {
                let name = line
                    .split_whitespace()
                    .next()
                    .expect("a name on every line");
                sections[at.expect("a heading comes first")].push(name.to_string());
            }
        }
    }
    sections
}

#[test]
fn every_workload_prints_every_listed_metric_and_nothing_else() {
    let [workloads, end_to_end, per_layer] = listed();
    assert_eq!(workloads.len(), 6);
    for workload in &workloads {
        for (trace, names) in [("0", &end_to_end), ("1", &per_layer)] {
            let out = fftperf(&[
                "--smoke",
                "--workload",
                workload,
                "--seed",
                "5",
                "--seconds",
                "0.05",
                "--trace",
                trace,
            ]);
            let text = stdout(&out);
            let line = text.lines().last().expect("a result line");
            assert!(
                out.status.success() && line.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload} --trace {trace}: {line}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
            for name in names {
                let key = format!("\"{name}\": {{\"value\": ");
                assert_eq!(
                    line.matches(&key).count(),
                    1,
                    "{workload}: {name} in {line}"
                );
            }
            assert_eq!(line.matches("\"unit\"").count(), names.len(), "{line}");
        }
    }
}

#[test]
fn same_seed_same_counts_and_simulated_statistics() {
    let exact = |seed: &str| {
        let out = fftperf(&[
            "--smoke",
            "--workload",
            "service_replay",
            "--seed",
            seed,
            "--seconds",
            "0.05",
            "--trace",
            "1",
        ]);
        assert!(out.status.success());
        stdout(&out)
            .lines()
            .filter(|l| {
                [
                    "service.completed",
                    "service.rejected",
                    "service.jain",
                    "tuner.executed",
                    "fft3d.sim_time_s",
                ]
                .iter()
                .any(|name| l.trim_start().starts_with(name))
            })
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    let first = exact("11");
    assert_eq!(first.len(), 7, "{first:?}");
    assert_eq!(first, exact("11"));
}

#[test]
fn a_wrong_command_line_fails_without_a_result() {
    for args in [
        &[
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "serial128", "--trace", "2"],
        &["--frobnicate"],
    ] {
        let out = fftperf(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(!stdout(&out).contains("\"correct\""), "{args:?}");
    }
}
