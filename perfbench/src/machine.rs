//! The machine record every run carries, and the process's peak RSS.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Obj;

/// Where and on what a run was measured.
#[derive(Debug, Clone)]
pub struct MachineRecord {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `none` outside a git checkout.
    pub git_commit: String,
    /// FNV-1a digest of the program sources (`crates/`, `vendor/`, the
    /// workspace manifest and lock file), which identifies the measured
    /// code where no git commit exists.
    pub source_digest: String,
}

impl MachineRecord {
    /// Collect the record from the current directory (the checkout root).
    pub fn collect() -> MachineRecord {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        // Stop git at the checkout root: a checkout that is not a
        // repository must not pick up an enclosing one.
        let ceiling = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(Path::to_path_buf))
            .unwrap_or_default();
        MachineRecord {
            nproc: nproc(),
            cpu_model,
            rustc: command_line(Command::new("rustc").arg("-V"))
                .unwrap_or_else(|| "unknown".to_string()),
            git_commit: command_line(
                Command::new("git")
                    .args(["rev-parse", "HEAD"])
                    .env("GIT_CEILING_DIRECTORIES", ceiling),
            )
            .unwrap_or_else(|| "none".to_string()),
            source_digest: format!("{:016x}", source_digest(Path::new("."))),
        }
    }

    /// The record as one JSON object.
    pub fn to_json(&self) -> String {
        Obj::new()
            .int("nproc", self.nproc as u64)
            .str("cpu_model", &self.cpu_model)
            .str("rustc", &self.rustc)
            .str("git_commit", &self.git_commit)
            .str("source_digest", &self.source_digest)
            .render()
    }
}

/// Worker threads the program may use (the daemon's and the campaign
/// executors' default).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// First stdout line of a command that exits successfully.
fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// FNV-1a over the sorted relative paths and contents of the program
/// sources under `root`.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "vendor"] {
        collect_files(&root.join(dir), &mut files);
    }
    for file in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(file));
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            feed(file.to_string_lossy().as_bytes());
            feed(&bytes);
        }
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative (all-CPU total, steal) jiffies from `/proc/stat`: the share
/// of time the hypervisor ran someone else while this guest wanted the
/// CPU.  A wall-clock benchmark on a shared host cannot be steadier than
/// its steal share, so every run reports it.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// The steal share between two [`cpu_ticks`] readings.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((t0, s0), (t1, s1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}
