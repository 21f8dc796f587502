//! What the harness needs to know about the machine and about itself.

use std::process::Command;

fn status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    Some(line[key.len()..].trim().to_string())
}

/// Peak resident set of this process so far, in KiB (`VmHWM`); `0` where
/// `/proc` does not say.
pub fn peak_rss_kb() -> u64 {
    status_field("VmHWM:")
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// The first CPU this process may run on, for `taskset -c`.
pub fn first_allowed_cpu() -> Option<u32> {
    let list = status_field("Cpus_allowed_list:")?;
    list.split([',', '-']).next()?.trim().parse().ok()
}

/// First line of a command's output, or `unknown` when it cannot be run
/// (a checkout that is not a git repository, say).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()?
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cache_sizes() -> String {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    let mut sizes = Vec::new();
    for index in 0..8 {
        let read = |file: &str| std::fs::read_to_string(format!("{dir}/index{index}/{file}"));
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            break;
        };
        sizes.push(format!("L{} {} {}", level.trim(), kind.trim(), size.trim()));
    }
    if sizes.is_empty() {
        "unknown".into()
    } else {
        sizes.join(", ")
    }
}

/// The `env` block of the full report, as JSON members.
pub fn env_json(seed: u64, pinned: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "\"nproc\": {nproc}, \"pinned\": {pinned}, \"caches\": \"{}\", \"rustc\": \"{}\", \
         \"git_commit\": \"{}\", \"seed\": {seed}",
        cache_sizes(),
        first_line("rustc", &["-V"]),
        first_line("git", &["rev-parse", "HEAD"]),
    )
}
