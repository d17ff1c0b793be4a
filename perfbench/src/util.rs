//! Shared plumbing: the seeded generator, quantiles, the result line, child
//! daemons, input files and the process's peak memory.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ttk_datagen::cartel::{generate_area, Area, CartelConfig};
use ttk_pdb::{table_to_csv, CsvOptions, DataType, PTable, Schema};

/// The congestion score every CSV relation is ranked by (the CLI's own
/// example expression).
pub const SCORE_EXPR: &str = "speed_limit / (length / delay)";

/// SplitMix64: a small deterministic generator, so that one `--seed` gives
/// one operation stream on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// An independent stream for sub-task `lane` of the same seed.
    pub fn fork(&self, lane: u64) -> Self {
        let mut probe = Rng(self.0 ^ lane.wrapping_mul(0xd1b5_4a32_d192_ed03));
        Rng(probe.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Draws ranks `0..n` with probability proportional to `1 / (rank + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds of a duration, as a float.
pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// The metrics of one run, printed as the last line of standard output.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Mismatches and refused answers, one line each, for the log.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Counts one failed operation and keeps the first few reasons.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(reason);
        }
    }

    /// The result object: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A CarTel measurement area of `segments` road segments.
pub fn cartel_area(segments: usize, seed: u64) -> Area {
    generate_area(&CartelConfig {
        segments,
        seed,
        ..CartelConfig::default()
    })
    .expect("area generation cannot fail for valid configurations")
}

/// The probabilistic relation `ttk generate cartel` writes for `area`: one
/// row per delay bin, one ME group per road segment.
pub fn cartel_relation(area: &Area) -> PTable {
    let schema = Schema::default()
        .with("segment_id", DataType::Integer)
        .with("speed_limit", DataType::Float)
        .with("length", DataType::Float)
        .with("delay", DataType::Float);
    let mut table = PTable::new("area", schema);
    for segment in &area.segments {
        for bin in &segment.bins {
            table
                .insert(
                    vec![
                        (segment.segment_id as i64).into(),
                        segment.speed_limit_kmh.into(),
                        segment.length_m.into(),
                        bin.delay_seconds.into(),
                    ],
                    bin.probability.clamp(1e-6, 1.0),
                    Some(&format!("segment-{}", segment.segment_id)),
                )
                .expect("generated rows fit the schema");
        }
    }
    table
}

/// Splits `table` round-robin into `shards` relations, as `ttk generate
/// --shards` does.
pub fn split_round_robin(table: &PTable, shards: usize) -> Vec<PTable> {
    let mut parts: Vec<PTable> = (0..shards)
        .map(|i| PTable::new(format!("area_shard{i}"), table.schema().clone()))
        .collect();
    for (i, row) in table.rows().iter().enumerate() {
        parts[i % shards]
            .insert(row.values.clone(), row.probability, row.group.as_deref())
            .expect("rows of one schema");
    }
    parts
}

pub fn write_csv(path: &Path, table: &PTable) {
    fs::write(path, table_to_csv(table, &CsvOptions::default()))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// A scratch directory for one run's files, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(root: &Path, name: &str) -> Self {
        let dir = root.join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        WorkDir(dir)
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A `ttk` daemon running as a child process. Dropping it stops the daemon
/// and waits for it to exit.
pub struct Daemon {
    child: Child,
    pub addr: String,
    log: PathBuf,
}

impl Daemon {
    /// Starts `ttk <args> --listen 127.0.0.1:0 --port-file FILE` with its
    /// log in `log`, and waits until the port file names the bound address.
    pub fn start(ttk: &Path, args: &[String], port_file: PathBuf, log: PathBuf) -> Daemon {
        let _ = fs::remove_file(&port_file);
        let log_file = fs::File::create(&log).expect("create daemon log");
        let child = Command::new(ttk)
            .args(args)
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .unwrap_or_else(|e| panic!("cannot start {}: {e}", ttk.display()));
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            log,
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(addr) = fs::read_to_string(&port_file) {
                if !addr.trim().is_empty() {
                    daemon.addr = addr.trim().to_string();
                    return daemon;
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                let log = fs::read_to_string(&daemon.log).unwrap_or_default();
                panic!("daemon exited during start-up ({status}): {log}");
            }
            assert!(Instant::now() < deadline, "daemon did not publish its port");
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the daemon to drain (SIGTERM), waits for it, and returns its
    /// log. A daemon that does not exit within ten seconds is killed.
    pub fn stop(mut self) -> String {
        self.shutdown();
        fs::read_to_string(&self.log).unwrap_or_default()
    }

    fn shutdown(&mut self) {
        if let Ok(Some(_)) = self.child.try_wait() {
            return;
        }
        let _ = Command::new("kill")
            .arg("-TERM")
            .arg(self.pid())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Whether another whole cycle runs: until `min_queries` queries are done,
/// and then while the window, less half a cycle's measured length, is not
/// yet spent — so a run ends within half a cycle of the window on either
/// side unless a slow stretch needs more cycles for its queries.
pub fn whole_cycles_left(
    elapsed: Duration,
    cycles: usize,
    queries: usize,
    min_queries: usize,
    window: Duration,
) -> bool {
    cycles == 0 || queries < min_queries || elapsed + elapsed / (2 * cycles as u32) < window
}
