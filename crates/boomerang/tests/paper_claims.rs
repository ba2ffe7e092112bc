//! Cross-crate integration tests: the qualitative claims of the paper's
//! evaluation, checked end-to-end on small synthetic workloads.

use boomerang::{Mechanism, RunLength, WorkloadData};
use frontend::Simulator;
use sim_core::{MicroarchConfig, NocModel, PerfectComponents};
use workloads::WorkloadKind;
struct Bench {
    layout: workloads::CodeLayout,
    trace: workloads::Trace,
}

impl Bench {
    fn new(kind: WorkloadKind, footprint: u64, blocks: usize) -> Self {
        let profile = kind.profile().with_footprint_bytes(footprint);
        let layout = workloads::CodeLayout::generate(&profile);
        let trace = workloads::Trace::generate_blocks(&layout, blocks);
        Bench { layout, trace }
    }

    fn run(&self, mechanism: Mechanism, config: &MicroarchConfig) -> frontend::SimStats {
        let mut sim = Simulator::new(
            config.clone(),
            &self.layout,
            &self.trace,
            Box::new(mechanism.build_any()),
        );
        sim.run_with_warmup(5_000)
    }
}

#[test]
fn figure1_opportunity_perfect_l1i_and_btb_help() {
    let bench = Bench::new(WorkloadKind::Apache, 256 * 1024, 40_000);
    let cfg = MicroarchConfig::hpca17();
    let baseline = bench.run(Mechanism::Baseline, &cfg);
    let perfect_l1i = bench.run(
        Mechanism::Baseline,
        &cfg.clone().with_perfect(PerfectComponents::l1i()),
    );
    let perfect_both = bench.run(
        Mechanism::Baseline,
        &cfg.clone().with_perfect(PerfectComponents::l1i_and_btb()),
    );
    let s1 = perfect_l1i.speedup_vs(&baseline);
    let s2 = perfect_both.speedup_vs(&baseline);
    assert!(s1 > 1.03, "perfect L1-I speedup too small: {s1:.3}");
    assert!(
        s2 > s1,
        "perfect BTB must add on top of perfect L1-I: {s2:.3} vs {s1:.3}"
    );
}

#[test]
fn figure7_boomerang_and_confluence_eliminate_most_btb_miss_squashes() {
    let bench = Bench::new(WorkloadKind::Db2, 256 * 1024, 40_000);
    let cfg = MicroarchConfig::hpca17();
    let fdip = bench.run(Mechanism::Fdip, &cfg);
    let confluence = bench.run(Mechanism::Confluence, &cfg);
    let boomerang = bench.run(Mechanism::Boomerang(Default::default()), &cfg);
    assert!(fdip.squashes.btb_miss > 0);
    assert!(
        boomerang.squashes.btb_miss * 4 < fdip.squashes.btb_miss,
        "Boomerang must remove most BTB-miss squashes ({} vs {})",
        boomerang.squashes.btb_miss,
        fdip.squashes.btb_miss
    );
    assert!(confluence.squashes.btb_miss < fdip.squashes.btb_miss);
}

#[test]
fn figure8_prefetchers_cover_stall_cycles() {
    let bench = Bench::new(WorkloadKind::Zeus, 256 * 1024, 40_000);
    let cfg = MicroarchConfig::hpca17();
    let baseline = bench.run(Mechanism::Baseline, &cfg);
    for mechanism in [
        Mechanism::NextLine,
        Mechanism::Fdip,
        Mechanism::Shift,
        Mechanism::Boomerang(Default::default()),
    ] {
        let stats = bench.run(mechanism, &cfg);
        let coverage = stats.stall_coverage_vs(&baseline);
        assert!(
            coverage > 0.1,
            "{} covered only {:.1}% of stall cycles",
            mechanism.label(),
            coverage * 100.0
        );
    }
}

#[test]
fn figure9_boomerang_matches_confluence_and_beats_pure_prefetchers() {
    let bench = Bench::new(WorkloadKind::Nutch, 256 * 1024, 40_000);
    let cfg = MicroarchConfig::hpca17();
    let baseline = bench.run(Mechanism::Baseline, &cfg);
    let fdip = bench.run(Mechanism::Fdip, &cfg);
    let confluence = bench.run(Mechanism::Confluence, &cfg);
    let boomerang = bench.run(Mechanism::Boomerang(Default::default()), &cfg);
    assert!(boomerang.speedup_vs(&baseline) > 1.0);
    assert!(boomerang.speedup_vs(&baseline) >= fdip.speedup_vs(&baseline) * 0.98);
    let ratio = boomerang.cycles as f64 / confluence.cycles as f64;
    assert!(
        (0.8..=1.2).contains(&ratio),
        "Boomerang vs Confluence cycle ratio {ratio:.3}"
    );
}

#[test]
fn figure11_lower_llc_latency_shrinks_absolute_benefit() {
    let bench = Bench::new(WorkloadKind::Streaming, 256 * 1024, 40_000);
    let mesh = MicroarchConfig::hpca17();
    let xbar = MicroarchConfig::hpca17().with_noc(NocModel::Crossbar);
    let mesh_base = bench.run(Mechanism::Baseline, &mesh);
    let mesh_boom = bench.run(Mechanism::Boomerang(Default::default()), &mesh);
    let xbar_base = bench.run(Mechanism::Baseline, &xbar);
    let xbar_boom = bench.run(Mechanism::Boomerang(Default::default()), &xbar);
    let mesh_speedup = mesh_boom.speedup_vs(&mesh_base);
    let xbar_speedup = xbar_boom.speedup_vs(&xbar_base);
    assert!(mesh_speedup >= 1.0 && xbar_speedup >= 1.0);
    // The cheaper the LLC access, the smaller the absolute benefit.
    assert!(xbar_speedup <= mesh_speedup + 0.05);
}

#[test]
fn determinism_across_identical_runs() {
    let bench = Bench::new(WorkloadKind::Oracle, 128 * 1024, 20_000);
    let cfg = MicroarchConfig::hpca17();
    let a = bench.run(Mechanism::Boomerang(Default::default()), &cfg);
    let b = bench.run(Mechanism::Boomerang(Default::default()), &cfg);
    assert_eq!(a, b);
}

#[test]
fn storage_comparison_headline() {
    // The §VI-D table, byte for byte.
    assert_eq!(
        boomerang::storage::comparison_table(),
        "\
mechanism     metadata (bytes)  system support  carves LLC capacity
Next Line                    0  no              no
DIP                      81920  no              no
FDIP                       204  no              no
PIF                     221184  no              no
SHIFT                   245760  yes             yes
Confluence              245760  yes             yes
Boomerang                  540  no              no
"
    );
    let boom = Mechanism::Boomerang(Default::default()).metadata_bytes();
    let confluence = Mechanism::Confluence.metadata_bytes();
    assert_eq!(boom, 540);
    assert!(confluence > 400 * boom);
}

#[test]
fn run_length_smoke_workload_data_api() {
    // The public WorkloadData API end-to-end (small but real).
    let data = WorkloadData::generate(WorkloadKind::Streaming, RunLength::smoke_test());
    let cfg = MicroarchConfig::hpca17();
    let baseline = data.run(Mechanism::Baseline, &cfg);
    let boom = data.run(Mechanism::Boomerang(Default::default()), &cfg);
    assert!(baseline.instructions > 0);
    assert!(boom.speedup_vs(&baseline) > 0.9);
}
