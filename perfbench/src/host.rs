//! Facts about the host and the build that every result carries.

use std::process::Command;

use stackcache_obs::JsonObj;

/// Peak resident set of this process in MiB (`VmHWM`), or `None` when
/// `/proc` does not report it.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cores the benchmark may use for load generation and serving.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

/// Identify the source under test: the git commit when the tree is a
/// repository, otherwise an FNV-1a digest of every `.rs` and `.toml`
/// file under `crates/` and the benchmark's own `src/`.
fn source_id() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let git_dir = format!("{root}/.git");
    if let Some(commit) = command_line("git", &["--git-dir", &git_dir, "rev-parse", "HEAD"]) {
        return commit;
    }
    let mut files = Vec::new();
    for dir in ["crates", "perfbench/src"] {
        collect(&std::path::Path::new(root).join(dir), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        // relative paths, so two checkouts of one tree agree
        let name = f.strip_prefix(root).unwrap_or(f);
        bytes.extend_from_slice(name.to_string_lossy().as_bytes());
        if let Ok(b) = std::fs::read(f) {
            bytes.extend_from_slice(&b);
        }
    }
    format!(
        "no git; source digest {:016x} over {} files",
        stackcache_net::fnv1a64(&bytes),
        files.len()
    )
}

fn collect(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// The provenance record printed with every result, as one JSON object.
#[must_use]
pub fn provenance(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    warmup: &str,
    samples: &[(String, u64)],
    trace_overhead: Option<f64>,
) -> String {
    let mut per = JsonObj::new();
    for (name, n) in samples {
        per.field_u64(name, *n);
    }
    let mut o = JsonObj::new();
    o.field_str("workload", workload)
        .field_u64("seed", seed)
        .field_u64("seconds", seconds)
        .field_bool("trace", trace)
        .field_str("commit", &source_id())
        .field_str(
            "rustc",
            &command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        )
        .field_str(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .field_u64("nproc", nproc() as u64)
        .field_str("cpu", &cpu_model())
        .field_str("kernel", &kernel())
        .field_str("warmup", warmup);
    match trace_overhead {
        Some(v) => o.field_f64("trace_overhead", v),
        None => o.field_str("trace_overhead", "measured in the traced run"),
    };
    o.field_raw("samples", &per.finish());
    o.finish()
}
