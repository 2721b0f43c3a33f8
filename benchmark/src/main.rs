//! `perf_ledger`: the repository's benchmark. See `README.md` beside the
//! manifest for the workloads, the metrics and how to read the output.

mod affinity;
mod compare;
mod layers;
mod micro;
mod procfs;
mod run;
mod spec;
mod stats;
mod sut;
mod trace;

use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use run::{Measured, RunArgs, Sabotage};
use spec::{Better, Spec, Substrate, END_TO_END, EPOCHS_PER_SECOND, WORKLOADS};
use sut::Json;

const USAGE: &str = "\
usage:
  perf_ledger --workload NAME --seed N --seconds S --trace 0|1 [--epochs E]
      one run of one workload; the last line of stdout is the result
  perf_ledger all [--seed N] [--seconds S] [--trace 0|1] [--epochs E]
      every workload in turn, each in its own process
  perf_ledger aa [--runs N] [--seconds S] [--epochs E] [--workload NAME]
      two interleaved sets of N runs per workload; fails if they disagree
  perf_ledger compare A.jsonl B.jsonl
      one row per workload x end-to-end metric
  perf_ledger --sabotage [--workload NAME]
      self-test: a corrupted mirror and a forgotten commit must both be caught
workloads: dc_sci dc_tcp bulk_tcp bulk_redo_tcp";

/// Command-line flags shared by the subcommands.
struct Flags {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: u64,
    epochs: Option<u64>,
    trace: bool,
    runs: usize,
    sabotage: bool,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: 1,
        seconds: 12,
        epochs: None,
        trace: false,
        runs: 5,
        sabotage: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        let number = |v: &String| v.parse::<u64>().map_err(|e| format!("{arg} {v}: {e}"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                f.workload = Some(Spec::by_name(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => f.seed = number(value()?)?,
            "--seconds" => f.seconds = number(value()?)?.max(1),
            "--epochs" => f.epochs = Some(number(value()?)?.max(1)),
            "--runs" => f.runs = number(value()?)?.max(2) as usize,
            "--trace" => f.trace = number(value()?)? != 0,
            "--sabotage" => f.sabotage = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => f.positional.push(other.to_owned()),
        }
    }
    Ok(f)
}

impl Flags {
    fn epochs(&self) -> u64 {
        self.epochs.unwrap_or(self.seconds * EPOCHS_PER_SECOND)
    }

    /// The flags a child process needs to repeat this configuration.
    fn child_args(&self, workload: &str, seed: u64) -> Vec<String> {
        let mut args = vec![
            "--workload".to_owned(),
            workload.to_owned(),
            "--seed".to_owned(),
            seed.to_string(),
            "--seconds".to_owned(),
            self.seconds.to_string(),
            "--trace".to_owned(),
            u8::from(self.trace).to_string(),
        ];
        if let Some(e) = self.epochs {
            args.extend(["--epochs".to_owned(), e.to_string()]);
        }
        args
    }
}

/// The benchmark's own directory and the repository root above it.
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = bench_dir().join("out");
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Builds the `perseas` CLI in release mode into the target directory
/// this binary runs from, and returns the path of the executable.
fn build_cli() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("cannot tell the target directory from the executable's path")?;
    let manifest = bench_dir().join("../Cargo.toml");
    let status = Command::new(std::env::var_os("CARGO").unwrap_or("cargo".into()))
        .args(["build", "--release", "--offline", "--quiet", "--package"])
        .arg(sut::CLI_PACKAGE)
        .arg("--manifest-path")
        .arg(&manifest)
        .arg("--target-dir")
        .arg(target)
        .stdin(Stdio::null())
        // Cargo's chatter must not end up after the result line.
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building {} failed", sut::CLI_PACKAGE));
    }
    let cli = target.join("release").join(sut::CLI_BINARY);
    if cli.is_file() {
        Ok(cli)
    } else {
        Err(format!("{} was not built", cli.display()))
    }
}

/// The `perseas` binary if the workload needs one, built on every core;
/// from then on the run, and the server it will spawn, share one.
fn cli_for(spec: &Spec) -> Result<PathBuf, String> {
    let cli = match spec.substrate {
        Substrate::Sim => PathBuf::new(),
        Substrate::Tcp => build_cli()?,
    };
    match affinity::pin_to_one_cpu() {
        Some(cpu) => println!("pinned to cpu {cpu}"),
        None => println!("could not pin to one cpu: expect noisier timings"),
    }
    Ok(cli)
}

/// Prints every metric by name with its unit, then the result line.
fn report(spec: &Spec, flags: &Flags, m: &mut Measured) {
    // (name, unit, value, larger is better)
    let metrics: Vec<(&str, &str, f64, bool)> = if flags.trace {
        let values = layers::per_layer(spec, m);
        layers::PER_LAYER
            .iter()
            .zip(values)
            .map(|(p, v)| (p.name, p.unit, v, p.higher_is_better))
            .collect()
    } else {
        let values = m.end_to_end();
        END_TO_END
            .iter()
            .zip(values)
            .map(|(e, v)| (e.name, e.unit, v, e.better == Better::Higher))
            .collect()
    };
    println!("workload {} seed {}: {}", spec.name, flags.seed, spec.why);
    println!(
        "{} epochs of {} txns, {} latency samples, {} set-ups, {} recoveries",
        m.epoch_s.len(),
        m.epoch_txns,
        m.timed_txns,
        m.setup_s.len(),
        m.recover_s.len()
    );
    for (name, unit, value, higher) in &metrics {
        let better = if *higher { "higher" } else { "lower" };
        println!("{name:<46} {value:>18.6} {unit:<6} ({better} is better)");
    }
    for p in &m.problems {
        println!("PROBLEM: {p}");
    }
    let result = Json::Object(vec![
        ("correct".into(), Json::Bool(m.correct)),
        ("attempted".into(), Json::UInt(m.attempted.max(1))),
        ("failed".into(), Json::UInt(m.failed)),
        (
            "metrics".into(),
            Json::Object(
                metrics
                    .iter()
                    .map(|&(name, unit, value, _)| {
                        let entry = Json::object(vec![
                            ("value", Json::Num(value)),
                            ("unit", Json::str(unit)),
                        ]);
                        (name.to_owned(), entry)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
}

/// One run of one workload in this process.
fn run_one(flags: &Flags) -> Result<bool, String> {
    let spec = flags.workload.ok_or("--workload is required")?;
    let mut args = RunArgs::new(spec, flags.seed, flags.epochs(), cli_for(spec)?);
    args.trace = flags.trace;
    // A disturbed machine may take longer per epoch; stop adding epochs
    // well before the driver's per-run limit.
    args.time_cap = Duration::from_secs_f64(flags.seconds as f64 * 2.5);
    let mut m = run::run(&args)?;
    if flags.trace {
        let path = out_dir()?.join(format!("trace-{}.jsonl", spec.name));
        let file = fs::File::create(&path).map_err(|e| e.to_string())?;
        let mut out = BufWriter::new(file);
        trace::write_jsonl(&mut out, &m.spans)
            .and_then(|()| out.flush())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("trace: {} spans in {}", m.spans.len(), path.display());
    }
    report(spec, flags, &mut m);
    Ok(m.correct)
}

/// The self-test: both sabotages must be reported as `correct: false`.
fn sabotage(flags: &Flags) -> Result<bool, String> {
    let spec = flags.workload.unwrap_or(&WORKLOADS[1]);
    let cli = cli_for(spec)?;
    let mut all_caught = true;
    for (what, how) in [
        ("a flipped mirror byte", Sabotage::FlipMirrorByte),
        ("a dropped acknowledged commit", Sabotage::DropOracleCommit),
    ] {
        let mut args = RunArgs::new(spec, flags.seed, 1, cli.clone());
        args.sabotage = how;
        args.setups = 1;
        args.recoveries = 2;
        let m = run::run(&args)?;
        let caught = !m.correct && m.failed > 0;
        println!(
            "sabotage on {}: {what}: correct:{} failed:{} -> {}",
            spec.name,
            m.correct,
            m.failed,
            if caught { "caught" } else { "MISSED" }
        );
        for p in &m.problems {
            println!("  {p}");
        }
        all_caught &= caught;
    }
    Ok(all_caught)
}

/// Runs this executable again with `args`; returns its last stdout line.
fn run_child(args: &[String], echo: bool) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{text}");
    }
    let last = text.lines().last().unwrap_or_default().to_owned();
    Ok((out.status.success(), last))
}

/// Every workload in turn, each in a fresh process so that peak memory
/// and process counters belong to one workload.
fn all(flags: &Flags) -> Result<bool, String> {
    let mut ok = true;
    for w in &WORKLOADS {
        let (success, _) = run_child(&flags.child_args(w.name, flags.seed), true)?;
        ok &= success;
    }
    Ok(ok)
}

/// A result line with the run's workload, seed and trace flag in front.
fn tagged_line(workload: &str, seed: u64, trace: bool, result: &str) -> Result<String, String> {
    let Json::Object(fields) = Json::parse(result).map_err(|e| format!("bad result line: {e}"))?
    else {
        return Err("result line is not an object".into());
    };
    let mut tagged = vec![
        ("workload".to_owned(), Json::str(workload)),
        ("seed".to_owned(), Json::UInt(seed)),
        ("trace".to_owned(), Json::UInt(u64::from(trace))),
    ];
    tagged.extend(fields);
    Ok(Json::Object(tagged).to_string())
}

/// Two interleaved sets of runs of the same code, same seeds on both
/// sides, judged by [`compare::aa_violations`].
fn aa(flags: &Flags) -> Result<bool, String> {
    let dir = out_dir()?;
    let paths = [dir.join("aa-A.jsonl"), dir.join("aa-B.jsonl")];
    let mut files = Vec::new();
    for p in &paths {
        files.push(fs::File::create(p).map_err(|e| format!("{}: {e}", p.display()))?);
    }
    let chosen: Vec<&Spec> = match flags.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    for i in 0..flags.runs {
        let seed = flags.seed + i as u64;
        for w in &chosen {
            for (set, file) in files.iter_mut().enumerate() {
                let (success, line) = run_child(&flags.child_args(w.name, seed), false)?;
                if !success {
                    eprintln!("run {} seed {seed} set {set} exited with an error", w.name);
                }
                let tagged = tagged_line(w.name, seed, flags.trace, &line)?;
                writeln!(file, "{tagged}").map_err(|e| e.to_string())?;
                eprintln!("aa: {} seed {seed} set {}", w.name, ["A", "B"][set]);
            }
        }
    }
    drop(files);
    let read = |p: &PathBuf| {
        fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| compare::parse_records(&t))
    };
    let (a, b) = (read(&paths[0])?, read(&paths[1])?);
    print!("{}", compare::compare(&a, &b).0);
    let violations = compare::aa_violations(&a, &b);
    for v in &violations {
        println!("A/A VIOLATION: {v}");
    }
    println!(
        "A/A over {} runs per set: {}",
        flags.runs,
        if violations.is_empty() {
            "pass"
        } else {
            "FAIL"
        }
    );
    Ok(violations.is_empty())
}

fn compare_files(flags: &Flags) -> Result<bool, String> {
    let [_, a, b] = flags.positional.as_slice() else {
        return Err("compare takes two files".into());
    };
    let read = |p: &String| {
        fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| compare::parse_records(&t))
    };
    let (table, worse) = compare::compare(&read(a)?, &read(b)?);
    print!("{table}");
    Ok(!worse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome =
        parse_flags(&args).and_then(|flags| match flags.positional.first().map(String::as_str) {
            Some("all") => all(&flags),
            Some("aa") => aa(&flags),
            Some("compare") => compare_files(&flags),
            Some("warm-pages") => Ok(run::touch_pages()),
            Some(other) => Err(format!("unknown command {other}\n{USAGE}")),
            None if flags.sabotage => sabotage(&flags),
            None if flags.workload.is_some() => run_one(&flags),
            None => Err(USAGE.to_owned()),
        });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
