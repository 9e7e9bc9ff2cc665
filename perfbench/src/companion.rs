//! Companions: the closed loops a run is not named after, run for their share of the
//! run's time so that every run reports every end-to-end metric.
//!
//! Each companion runs in a process of its own (`perfbench --companion <loop> --seed
//! <n>`), so it starts from its own heap and thread state instead of whatever the
//! other loops left behind: where glibc places the model-sized buffers decides how
//! fast a restore is, and a shared heap made that differ from run to run. The parent
//! advances each child in turn with the named workload, one process working at a
//! time, so every loop's samples are spread over the whole run and see the same
//! stretches of machine time.
//!
//! The protocol is one line each way. The parent writes `<seconds> <ops>`: the child
//! makes operations until the time spent in them reaches `seconds` in total and it
//! has made at least `ops`, then answers `ran <ops made>` (it also answers once, with
//! 0, when its deployment is ready). When its stdin closes the child finishes and
//! prints its report as [`Report::encode`] writes it.

use crate::report::Report;
use crate::{start, Args, Role, Timed};
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// A child process running one companion workload.
struct ChildProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl ChildProc {
    fn spawn(workload: &str, seed: u64) -> std::io::Result<Self> {
        let mut child = Command::new(std::env::current_exe()?)
            .args(["--companion", workload, "--seed", &seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let (stdin, stdout) = (child.stdin.take(), child.stdout.take());
        Ok(ChildProc {
            child,
            stdin,
            stdout: BufReader::new(stdout.expect("stdout is piped")),
        })
    }

    /// Reads one `ran <ops>` answer.
    fn ran(&mut self) -> Result<usize, String> {
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        line.trim()
            .strip_prefix("ran ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("expected `ran <ops>`, got {line:?}"))
    }

    fn request(&mut self, due_s: f64, min_ops: usize) -> Result<usize, String> {
        let stdin = self.stdin.as_mut().ok_or("stdin closed")?;
        writeln!(stdin, "{due_s} {min_ops}")
            .and_then(|_| stdin.flush())
            .map_err(|e| e.to_string())?;
        self.ran()
    }

    /// Closes the child's stdin, reads its report and waits for it to exit.
    fn finish(mut self) -> Result<String, String> {
        drop(self.stdin.take());
        let mut out = String::new();
        let read = self.stdout.read_to_string(&mut out);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        read.map_err(|e| e.to_string())?;
        if status.success() {
            Ok(out)
        } else {
            Err(format!("exited with {status}"))
        }
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        // Reached with the child still running only on an error path: never leave it
        // behind.
        if self.stdin.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

enum Runner {
    /// In this process: the self-test's tiny scale.
    Local(Timed),
    Child(ChildProc),
}

/// One companion in progress.
pub struct Companion {
    pub workload: &'static str,
    /// False once the child stopped answering.
    alive: bool,
    runner: Runner,
}

impl Companion {
    /// Deploys `workload` as a companion: in this process at the tiny scale, else in
    /// a child process, returning once its deployment is ready.
    pub fn start(workload: &'static str, args: &Args, report: &mut Report) -> Option<Self> {
        let runner = if args.tiny {
            Runner::Local(Timed::new(
                workload,
                start(workload, Role::Companion, args, report)?,
            ))
        } else {
            let what = format!("{workload} companion process");
            let mut child = report.op(&what, ChildProc::spawn(workload, args.seed))?;
            report.op(&what, child.ran())?;
            Runner::Child(child)
        };
        Some(Companion {
            workload,
            alive: true,
            runner,
        })
    }

    /// Runs the loop until the time spent in its operations reaches `due_s` and it
    /// made at least `min_ops` (see [`Timed::advance`]).
    pub fn advance(&mut self, due_s: f64, min_ops: usize, report: &mut Report) {
        if !self.alive {
            return;
        }
        match &mut self.runner {
            Runner::Local(c) => {
                c.advance(due_s, min_ops, report);
            }
            Runner::Child(p) => {
                let what = format!("{} companion process", self.workload);
                // A child that stopped answering is not asked again.
                self.alive = report.op(&what, p.request(due_s, min_ops)).is_some();
            }
        }
    }

    /// Records the loop's metrics and checks (from the child's report, for a child).
    pub fn finish(self, report: &mut Report) {
        match self.runner {
            Runner::Local(c) => c.finish(report),
            Runner::Child(p) => {
                let r = p.finish().and_then(|text| report.absorb(&text));
                report.op(&format!("{} companion process", self.workload), r);
            }
        }
    }
}

/// Parses a `<seconds> <ops>` request.
fn parse_request(line: &str) -> Option<(f64, usize)> {
    let (s, n) = line.trim().split_once(' ')?;
    Some((s.parse().ok()?, n.parse().ok()?))
}

/// The child's side: deploys `args.workload`, answers the parent's requests, and at
/// the end of its input prints its report.
pub fn child_main(args: &Args) {
    let mut report = Report::default();
    let mut pass = start(&args.workload, Role::Companion, args, &mut report)
        .map(|p| Timed::new(&args.workload, p));
    let mut out = std::io::stdout().lock();
    let answer = |out: &mut std::io::StdoutLock, n: usize| {
        // The parent counts a missing answer as a failure.
        let _ = writeln!(out, "ran {n}").and_then(|_| out.flush());
    };
    answer(&mut out, pass.as_ref().map_or(0, Timed::ops));
    for line in std::io::stdin().lock().lines() {
        let Some((due_s, min_ops)) = line.ok().as_deref().and_then(parse_request) else {
            break;
        };
        let ops = pass
            .as_mut()
            .map_or(0, |p| p.advance(due_s, min_ops, &mut report));
        answer(&mut out, ops);
    }
    if let Some(p) = pass {
        p.finish(&mut report);
    }
    let _ = write!(out, "{}", report.encode());
}
