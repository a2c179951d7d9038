//! The run manifest: a JSON record of what a run executed and how it went.
//!
//! A [`RunManifest`] captures enough to (a) audit a run — master seed,
//! config key/values, best-effort git commit, per-job seed/status/timings —
//! and (b) resume it: a later run with an identical configuration can load
//! the manifest and skip every job recorded as `ok`. Manifests are written
//! to the caller's output directory (`repro_out/` for the `repro` binary)
//! as `<tool>_manifest.json`.
//!
//! Seeds are stored as hex *strings*, not JSON numbers: a JSON number is a
//! double and cannot represent every `u64` exactly.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::engine::RunReport;
use crate::job::JobOutcome;
use crate::json::Value;

/// Terminal status of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// The job produced its value (and any artifact was written).
    Ok,
    /// The job failed; the payload is the failure message.
    Failed(String),
}

/// One job's row in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Stable job id (commit order).
    pub id: usize,
    /// Job name (the resume key).
    pub name: String,
    /// Seed the job received.
    pub seed: u64,
    /// Terminal status.
    pub status: JobStatus,
    /// Execution wall time in milliseconds.
    pub wall_ms: f64,
    /// Queue wait in milliseconds.
    pub queue_ms: f64,
    /// Artifact the job produced (e.g. a CSV file name), if any.
    pub artifact: Option<String>,
}

/// A complete run record, serializable to and from JSON.
///
/// # Examples
///
/// ```
/// use abs_exec::{Engine, JobSet, RunManifest};
///
/// let mut set = JobSet::new(1);
/// set.push("a", |s| s);
/// let report = Engine::single_threaded().run(set);
/// let mut manifest = RunManifest::new("demo", 1);
/// manifest.set_config("reps", "10");
/// manifest.record_report(&report);
/// let json = manifest.to_json();
/// let back = RunManifest::from_json(&json).unwrap();
/// assert_eq!(back.completed(), ["a".to_string()].into_iter().collect());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Name of the producing tool (names the manifest file).
    pub tool: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Free-form configuration key/value pairs; resume requires equality.
    pub config: Vec<(String, String)>,
    /// Best-effort git commit of the working tree, if discoverable.
    pub git: Option<String>,
    /// Unix timestamp (milliseconds) when the manifest was created.
    pub created_unix_ms: u64,
    /// Worker count of the producing run.
    pub workers: usize,
    /// Total wall time of the producing run, milliseconds.
    pub elapsed_ms: f64,
    /// Per-job rows, in job-id order.
    pub jobs: Vec<JobRecord>,
}

impl RunManifest {
    /// An empty manifest for `tool` with the given master seed.
    pub fn new(tool: impl Into<String>, seed: u64) -> Self {
        Self {
            tool: tool.into(),
            seed,
            config: Vec::new(),
            git: None,
            created_unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            workers: 0,
            elapsed_ms: 0.0,
            jobs: Vec::new(),
        }
    }

    /// The manifest file name for `tool`.
    pub fn file_name(tool: &str) -> String {
        format!("{tool}_manifest.json")
    }

    /// Sets (or replaces) a configuration key.
    pub fn set_config(&mut self, key: &str, value: impl Into<String>) {
        let value = value.into();
        if let Some(slot) = self.config.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.config.push((key.to_string(), value));
        }
    }

    /// Looks up a configuration key.
    pub fn config_value(&self, key: &str) -> Option<&str> {
        self.config
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether this manifest was produced under the same master seed and
    /// configuration pairs — the precondition for trusting its `ok` rows
    /// during resume.
    pub fn matches(&self, seed: u64, config: &[(String, String)]) -> bool {
        let mut mine = self.config.clone();
        let mut theirs = config.to_vec();
        mine.sort();
        theirs.sort();
        self.seed == seed && mine == theirs
    }

    /// Appends one row built from an engine outcome. `artifact` names any
    /// file the job's commit step produced.
    pub fn record<T>(&mut self, outcome: &JobOutcome<T>, artifact: Option<String>) {
        self.jobs.push(JobRecord {
            id: outcome.id,
            name: outcome.name.clone(),
            seed: outcome.seed,
            status: match &outcome.result {
                Ok(_) => JobStatus::Ok,
                Err(f) => JobStatus::Failed(f.message.clone()),
            },
            wall_ms: outcome.stats.wall.as_secs_f64() * 1e3,
            queue_ms: outcome.stats.queue_wait.as_secs_f64() * 1e3,
            artifact,
        });
    }

    /// Appends every outcome of a report and copies its pool counters.
    pub fn record_report<T>(&mut self, report: &RunReport<T>) {
        self.workers = report.workers.len();
        self.elapsed_ms = report.elapsed.as_secs_f64() * 1e3;
        for outcome in &report.outcomes {
            self.record(outcome, None);
        }
    }

    /// Appends a pre-built row (used when merging resumed runs).
    pub fn push_record(&mut self, record: JobRecord) {
        self.jobs.push(record);
    }

    /// Names of every job recorded as `ok` — the resume skip-set.
    pub fn completed(&self) -> BTreeSet<String> {
        self.jobs
            .iter()
            .filter(|j| j.status == JobStatus::Ok)
            .map(|j| j.name.clone())
            .collect()
    }

    /// The row for a given job name, if present.
    pub fn job(&self, name: &str) -> Option<&JobRecord> {
        self.jobs.iter().find(|j| j.name == name)
    }

    /// Serializes the manifest as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let jobs = self
            .jobs
            .iter()
            .map(|j| {
                let (status, error) = match &j.status {
                    JobStatus::Ok => ("ok".to_string(), Value::Null),
                    JobStatus::Failed(msg) => ("failed".to_string(), Value::Str(msg.clone())),
                };
                Value::Obj(vec![
                    ("id".into(), Value::Num(j.id as f64)),
                    ("name".into(), Value::Str(j.name.clone())),
                    ("seed".into(), Value::Str(format!("{:#x}", j.seed))),
                    ("status".into(), Value::Str(status)),
                    ("error".into(), error),
                    ("wall_ms".into(), Value::Num(round3(j.wall_ms))),
                    ("queue_ms".into(), Value::Num(round3(j.queue_ms))),
                    (
                        "artifact".into(),
                        match &j.artifact {
                            Some(a) => Value::Str(a.clone()),
                            None => Value::Null,
                        },
                    ),
                ])
            })
            .collect();
        let config = self
            .config
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect();
        Value::Obj(vec![
            ("tool".into(), Value::Str(self.tool.clone())),
            ("seed".into(), Value::Str(format!("{:#x}", self.seed))),
            ("config".into(), Value::Obj(config)),
            (
                "git".into(),
                match &self.git {
                    Some(g) => Value::Str(g.clone()),
                    None => Value::Null,
                },
            ),
            (
                "created_unix_ms".into(),
                Value::Num(self.created_unix_ms as f64),
            ),
            ("workers".into(), Value::Num(self.workers as f64)),
            ("elapsed_ms".into(), Value::Num(round3(self.elapsed_ms))),
            ("jobs".into(), Value::Arr(jobs)),
        ])
        .render_pretty()
    }

    /// Parses a manifest back from JSON.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Value::parse(text)?;
        let tool = str_field(&v, "tool")?;
        let seed = seed_field(&v, "seed")?;
        let config = match v.get("config") {
            Some(Value::Obj(pairs)) => pairs
                .iter()
                .map(|(k, val)| {
                    val.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| format!("config key {k:?} is not a string"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing config object".to_string()),
        };
        let git = v.get("git").and_then(|g| g.as_str()).map(str::to_string);
        let created_unix_ms = v
            .get("created_unix_ms")
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u64;
        let workers = v.get("workers").and_then(Value::as_f64).unwrap_or(0.0) as usize;
        let elapsed_ms = v.get("elapsed_ms").and_then(Value::as_f64).unwrap_or(0.0);
        let jobs = v
            .get("jobs")
            .and_then(Value::as_array)
            .ok_or_else(|| "missing jobs array".to_string())?
            .iter()
            .map(parse_job)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            tool,
            seed,
            config,
            git,
            created_unix_ms,
            workers,
            elapsed_ms,
            jobs,
        })
    }

    /// Writes `<tool>_manifest.json` into `dir`, creating it if needed.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(Self::file_name(&self.tool));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Loads a manifest from a file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(|f| f.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

/// Seeds are written as `0x…` hex strings; accept plain decimal too.
fn seed_field(v: &Value, key: &str) -> Result<u64, String> {
    let text = str_field(v, key)?;
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("field {key:?} is not a u64: {text:?}"))
}

fn parse_job(v: &Value) -> Result<JobRecord, String> {
    let status_text = str_field(v, "status")?;
    let status = match status_text.as_str() {
        "ok" => JobStatus::Ok,
        "failed" => JobStatus::Failed(
            v.get("error")
                .and_then(|e| e.as_str())
                .unwrap_or("unknown")
                .to_string(),
        ),
        other => return Err(format!("unknown job status {other:?}")),
    };
    Ok(JobRecord {
        id: v.get("id").and_then(Value::as_f64).unwrap_or(0.0) as usize,
        name: str_field(v, "name")?,
        seed: seed_field(v, "seed")?,
        status,
        wall_ms: v.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0),
        queue_ms: v.get("queue_ms").and_then(Value::as_f64).unwrap_or(0.0),
        artifact: v
            .get("artifact")
            .and_then(|a| a.as_str())
            .map(str::to_string),
    })
}

/// Best-effort current commit id of the repository at `root`, read straight
/// from `.git` (no subprocess, so it works in sandboxes without git).
pub fn git_commit(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    if let Some(reference) = head.strip_prefix("ref: ") {
        let direct = root.join(".git").join(reference);
        if let Ok(commit) = std::fs::read_to_string(direct) {
            return Some(commit.trim().to_string());
        }
        // Packed refs fallback.
        let packed = std::fs::read_to_string(root.join(".git/packed-refs")).ok()?;
        packed.lines().find_map(|line| {
            let (hash, name) = line.split_once(' ')?;
            (name == reference).then(|| hash.to_string())
        })
    } else {
        // Detached HEAD: the file holds the commit itself.
        Some(head.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        let mut m = RunManifest::new("unit", 0xDEAD_BEEF_F00D_CAFE);
        m.set_config("reps", "10");
        m.set_config("max_n", "64");
        m.workers = 2;
        m.elapsed_ms = 12.5;
        m.push_record(JobRecord {
            id: 0,
            name: "fig5".into(),
            seed: u64::MAX,
            status: JobStatus::Ok,
            wall_ms: 3.25,
            queue_ms: 0.125,
            artifact: Some("fig5.csv".into()),
        });
        m.push_record(JobRecord {
            id: 1,
            name: "fig6".into(),
            seed: 7,
            status: JobStatus::Failed("index out of bounds".into()),
            wall_ms: 1.0,
            queue_ms: 0.0,
            artifact: None,
        });
        m
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let m = sample();
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        // u64::MAX survives (the reason seeds are strings).
        assert_eq!(back.jobs[0].seed, u64::MAX);
    }

    #[test]
    fn completed_lists_only_ok_jobs() {
        let m = sample();
        let done = m.completed();
        assert!(done.contains("fig5"));
        assert!(!done.contains("fig6"));
    }

    #[test]
    fn matches_requires_seed_and_config() {
        let m = sample();
        let config = vec![
            ("max_n".to_string(), "64".to_string()),
            ("reps".to_string(), "10".to_string()),
        ];
        // Order-insensitive on keys.
        assert!(m.matches(0xDEAD_BEEF_F00D_CAFE, &config));
        assert!(!m.matches(1, &config));
        assert!(!m.matches(
            0xDEAD_BEEF_F00D_CAFE,
            &[("reps".to_string(), "100".to_string())]
        ));
    }

    #[test]
    fn write_and_load() {
        let dir = std::env::temp_dir().join("abs_exec_manifest_test");
        let m = sample();
        let path = m.write_to(&dir).unwrap();
        assert!(path.ends_with("unit_manifest.json"));
        let back = RunManifest::load(&path).unwrap();
        assert_eq!(back, m);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn set_config_replaces() {
        let mut m = RunManifest::new("t", 0);
        m.set_config("k", "1");
        m.set_config("k", "2");
        assert_eq!(m.config_value("k"), Some("2"));
        assert_eq!(m.config.len(), 1);
    }

    #[test]
    fn record_report_captures_outcomes() {
        use crate::{Engine, JobSet};
        let mut set = JobSet::new(5);
        set.push("ok", |s| s);
        set.push("bad", |_| -> u64 { panic!("poisoned") });
        let report = Engine::single_threaded().run(set);
        let mut m = RunManifest::new("t", 5);
        m.record_report(&report);
        assert_eq!(m.jobs.len(), 2);
        assert_eq!(m.jobs[0].status, JobStatus::Ok);
        assert_eq!(
            m.jobs[1].status,
            JobStatus::Failed("poisoned".to_string())
        );
        assert_eq!(m.workers, 1);
    }

    #[test]
    fn git_commit_reads_this_repo() {
        // The workspace is a git repository; HEAD must resolve to a hex id.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let commit = git_commit(&root).expect("repo HEAD resolves");
        assert!(commit.len() >= 7);
        assert!(commit.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
