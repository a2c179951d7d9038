//! Committed per-job result digests for the paper seed and the held-out
//! seed, compiled into the binary so a run needs no files beside it.
//!
//! A golden file has one `name<TAB>digest` line per job, in job order.
//! Goldens and bounds change only in a change that redefines the
//! benchmark; `abs-ledger goldens` rewrites them.

use crate::workload::{Workload, HELD_OUT_SEED, PAPER_SEED};

/// `(workload, seed, file contents)` for every committed golden file.
const FILES: [(Workload, u64, &str); 8] = [
    (
        Workload::BarrierPaper,
        PAPER_SEED,
        include_str!("../goldens/barrier_paper-19890605.txt"),
    ),
    (
        Workload::BarrierMega,
        PAPER_SEED,
        include_str!("../goldens/barrier_mega-19890605.txt"),
    ),
    (
        Workload::CoherenceApps,
        PAPER_SEED,
        include_str!("../goldens/coherence_apps-19890605.txt"),
    ),
    (
        Workload::NetOpenloop,
        PAPER_SEED,
        include_str!("../goldens/net_openloop-19890605.txt"),
    ),
    (
        Workload::BarrierPaper,
        HELD_OUT_SEED,
        include_str!("../goldens/barrier_paper-23071024.txt"),
    ),
    (
        Workload::BarrierMega,
        HELD_OUT_SEED,
        include_str!("../goldens/barrier_mega-23071024.txt"),
    ),
    (
        Workload::CoherenceApps,
        HELD_OUT_SEED,
        include_str!("../goldens/coherence_apps-23071024.txt"),
    ),
    (
        Workload::NetOpenloop,
        HELD_OUT_SEED,
        include_str!("../goldens/net_openloop-23071024.txt"),
    ),
];

/// The seeds that have goldens.
pub const SEEDS: [u64; 2] = [PAPER_SEED, HELD_OUT_SEED];

/// The golden file name for `workload` at `seed`.
pub fn file_name(workload: Workload, seed: u64) -> String {
    format!("{}-{seed:08x}.txt", workload.name())
}

/// The committed `(job name, digest)` lines for `workload` at `seed`, or
/// `None` when that seed has no goldens.
pub fn lookup(workload: Workload, seed: u64) -> Option<Vec<(&'static str, &'static str)>> {
    let (_, _, text) = FILES
        .iter()
        .find(|(w, s, text)| *w == workload && *s == seed && !text.is_empty())?;
    Some(
        text.lines()
            .map(|line| line.split_once('\t').unwrap_or((line, "")))
            .collect(),
    )
}

/// Renders `(job name, digest)` lines in the golden-file format.
pub fn render<'a>(lines: impl IntoIterator<Item = (&'a str, &'a str)>) -> String {
    lines
        .into_iter()
        .map(|(name, digest)| format!("{name}\t{digest}\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Scale;

    #[test]
    fn every_workload_has_goldens_for_both_seeds() {
        for w in Workload::ALL {
            for seed in SEEDS {
                let lines = lookup(w, seed).expect("golden file present");
                let jobs = w.jobs(seed, Scale::PAPER);
                let names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
                let golden: Vec<&str> = lines.iter().map(|(n, _)| *n).collect();
                assert_eq!(golden, names, "{} at {seed:#x}", w.name());
                assert!(lines.iter().all(|(_, d)| !d.is_empty()));
            }
        }
        assert_eq!(lookup(Workload::BarrierPaper, 1), None);
    }

    #[test]
    fn render_round_trips_through_lookup_format() {
        let text = render([("a.b", "1 2.5"), ("c", "3")]);
        assert_eq!(text, "a.b\t1 2.5\nc\t3\n");
    }

    /// The first value of every golden digest for `workload` at the paper
    /// seed.
    fn first_values(workload: Workload) -> Vec<f64> {
        lookup(workload, PAPER_SEED)
            .expect("golden file present")
            .iter()
            .map(|(_, digest)| {
                digest
                    .split(' ')
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("numeric digest")
            })
            .collect()
    }

    #[test]
    fn megasweep_goldens_are_the_exhibit_rows() {
        // `mean_accesses` of the N = 4096 and 65536 rows of `repro
        // megasweep`'s megasweep.json at the paper configuration, in grid
        // order.
        let rows = [
            10561.040000000003,
            8241.086425781254,
            7559.602067871093,
            9948.577849121095,
            8157.307248535154,
            6940.182202148438,
            174589.8333333333,
            134786.61813354492,
            118671.7633488973,
            179682.60321299237,
            117117.00642140706,
            136072.11539967853,
        ];
        assert_eq!(first_values(Workload::BarrierMega), rows);
    }

    #[test]
    fn coherence_goldens_are_the_table_cells() {
        use abs_sim::table::fmt_f64;
        // `repro table1 table2 snoopy` at the paper configuration: Table 1
        // (non-sync %, sync %) and Table 2 (sync traffic %) at 2 and 64
        // pointers, then the snoopy bus's sync share.
        let printed = [
            ("fft", ["18.3", "97.6", "0.0", "5.0"], ["0.9", "1.2"], "0.7"),
            (
                "simple",
                ["18.0", "99.1", "4.7", "1.4"],
                ["15.0", "18.9"],
                "4.9",
            ),
            (
                "weather",
                ["12.5", "99.6", "2.7", "0.6"],
                ["21.0", "25.1"],
                "2.7",
            ),
        ];
        let lines = lookup(Workload::CoherenceApps, PAPER_SEED).expect("golden file present");
        let values = |name: String| -> Vec<f64> {
            let (_, digest) = lines.iter().find(|(n, _)| *n == name).expect("job present");
            digest
                .split(' ')
                .map(|v| v.parse().expect("numeric"))
                .collect()
        };
        for (app, table1, table2, snoopy) in printed {
            let (c2, c64) = (
                values(format!("{app}.cached.dir2")),
                values(format!("{app}.cached.dir64")),
            );
            let got = [c2[6], c2[7], c64[6], c64[7]].map(|v| fmt_f64(v, 1));
            assert_eq!(got, table1.map(String::from), "{app} table 1");
            let (u2, u64_) = (
                values(format!("{app}.uncached_sync.dir2")),
                values(format!("{app}.uncached_sync.dir64")),
            );
            assert_eq!(
                [u2[8], u64_[8]].map(|v| fmt_f64(v, 1)),
                table2.map(String::from),
                "{app} table 2"
            );
            assert_eq!(
                fmt_f64(values(format!("{app}.snoopy"))[5], 1),
                snoopy,
                "{app} snoopy"
            );
        }
    }
}
