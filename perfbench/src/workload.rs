//! The three benchmark workloads: which campaign each runs, and how.

use campaign::{presets, spec_hash, CampaignSpec, EngineOptions, Job};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Report digests pinned at seed 0: `(workload, digest)`.
pub const PINNED_SEED0: [(Workload, &str); 3] = [
    (Workload::Figure9, "fnv1a64:64a84925f89018ba"),
    (Workload::DispatchStall, "fnv1a64:de77a626fb1b48eb"),
    (Workload::ServeLoopback, "fnv1a64:fd508eaf51025188"),
];

/// Campaign seeds the serve workload spreads over.
const SERVE_SEEDS: u64 = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 9 at paper length through `run`.
    Figure9,
    /// The interpreter-dispatch matrix at paper length through `run`.
    DispatchStall,
    /// Fig. 9 at smoke length over several seeds through `serve --listen`.
    ServeLoopback,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "figure9" => Some(Workload::Figure9),
            "dispatch-stall" => Some(Workload::DispatchStall),
            "serve-loopback" => Some(Workload::ServeLoopback),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Figure9 => "figure9",
            Workload::DispatchStall => "dispatch-stall",
            Workload::ServeLoopback => "serve-loopback",
        }
    }

    fn preset(self) -> &'static str {
        match self {
            Workload::Figure9 | Workload::ServeLoopback => "figure9",
            Workload::DispatchStall => "interpreter-dispatch",
        }
    }

    /// The campaign `seeds` offsets for the benchmark seed: the seed itself,
    /// and for the serve workload the seeds after it too. Seed 0 is the
    /// paper matrix.
    fn seeds(self, seed: u64) -> Vec<u64> {
        match self {
            Workload::Figure9 | Workload::DispatchStall => vec![seed],
            Workload::ServeLoopback => (0..SERVE_SEEDS).map(|i| seed.wrapping_add(i)).collect(),
        }
    }

    fn smoke(self) -> bool {
        self == Workload::ServeLoopback
    }

    pub fn pinned_digest(self, seed: u64) -> Option<&'static str> {
        (seed == 0).then(|| {
            PINNED_SEED0
                .iter()
                .find(|(w, _)| *w == self)
                .map(|&(_, d)| d)
                .expect("every workload has a pin")
        })
    }
}

/// One workload's campaign at one seed, with its files in a work directory.
pub struct Campaign {
    pub workload: Workload,
    pub spec: CampaignSpec,
    pub spec_path: PathBuf,
    pub jobs: Vec<Job>,
    pub hash: String,
    pub smoke: bool,
    pub threads: usize,
    /// The warm artifact cache the serve workload decodes from.
    pub cache: Option<PathBuf>,
}

impl Campaign {
    /// Builds the spec and writes it as TOML into `work`.
    pub fn prepare(
        workload: Workload,
        seed: u64,
        threads: usize,
        work: &Path,
    ) -> Result<Campaign, String> {
        let mut spec = presets::find(workload.preset()).map_err(|e| e.to_string())?;
        spec.seeds = workload.seeds(seed);
        let smoke = workload.smoke();
        let run = if smoke {
            boomerang::RunLength::smoke_test()
        } else {
            spec.run
        };
        let spec_path = work.join(format!("{}.toml", spec.name));
        std::fs::write(&spec_path, spec.to_toml_string())
            .map_err(|e| format!("cannot write {}: {e}", spec_path.display()))?;
        Ok(Campaign {
            workload,
            jobs: campaign::expand(&spec),
            hash: spec_hash(&spec, run, smoke),
            spec,
            spec_path,
            smoke,
            threads,
            cache: (workload == Workload::ServeLoopback).then(|| work.join("artifact-cache")),
        })
    }

    /// The engine options of the campaign's generation phase.
    pub fn engine_options(&self) -> EngineOptions {
        EngineOptions {
            jobs: self.threads,
            smoke: self.smoke,
            artifact_cache: self.cache.clone(),
            ..EngineOptions::default()
        }
    }

    /// The command that runs the whole campaign into `dir` with `jobs`
    /// simulation threads per `run` process, and the directory its journal
    /// and reports end up in. `serve` always runs `threads` single-threaded
    /// workers.
    pub fn command(
        &self,
        bin: &Path,
        dir: &Path,
        jobs: usize,
    ) -> Result<(Command, PathBuf), String> {
        let mut cmd = Command::new(bin);
        let threads = self.threads.to_string();
        match self.workload {
            Workload::Figure9 | Workload::DispatchStall => {
                cmd.arg("run")
                    .arg(&self.spec_path)
                    .args(["--jobs", &jobs.to_string(), "--quiet", "--out"])
                    .arg(dir);
                Ok((cmd, dir.to_path_buf()))
            }
            Workload::ServeLoopback => {
                // `serve` names each submission's output directory after the
                // spool file's stem.
                let spool = dir.join("spool");
                let name = self
                    .spec_path
                    .file_name()
                    .expect("the spec file has a name");
                std::fs::create_dir_all(&spool)
                    .and_then(|()| std::fs::copy(&self.spec_path, spool.join(name)))
                    .map_err(|e| format!("cannot fill the spool {}: {e}", spool.display()))?;
                let out = dir.join("out");
                let cache = self.cache.as_ref().expect("the serve workload has a cache");
                cmd.arg("serve")
                    .arg("--spool")
                    .arg(&spool)
                    .arg("--out")
                    .arg(&out)
                    .args(["--once", "--listen", "127.0.0.1:0", "--workers", &threads])
                    .args(["--jobs", "1", "--smoke", "--quiet", "--artifact-cache"])
                    .arg(cache);
                Ok((cmd, out.join(&self.spec.name)))
            }
        }
    }

    /// The canonical JSON report inside a campaign directory.
    pub fn report_path(&self, campaign_dir: &Path) -> PathBuf {
        campaign_dir.join(format!("{}.json", self.spec.name))
    }
}
