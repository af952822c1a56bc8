//! Golden results for simulator settings the benchmark reference
//! (`perfbench/sim_reference.tsv`, close page, paper defaults) does not
//! reach: strict FIFO, open page, refresh blackouts, a faster speed bin, a
//! degraded bank pair, heterogeneous cores and trace replay. Each cell's
//! every `RunResult` statistic is pinned exactly (floats by their shortest
//! round-trip form), so a change to the simulator's hot loop that moves a
//! single simulated bit fails here.

use dram_sim::RowPolicy;
use mem_sim::{
    DegradedConfig, LlcConfig, RunConfig, RunResult, SchemeConfig, SchemeId, SimRunner,
    SystemScale, Trace, WorkloadSpec,
};

const SEED: u64 = 0x0060_1DE2;

fn small(id: SchemeId, workload: &str) -> RunConfig {
    let scheme = SchemeConfig::build(id, SystemScale::QuadEquivalent);
    let line_bytes = scheme.mem.line_bytes;
    let mut cfg = RunConfig::paper(scheme, WorkloadSpec::lookup(workload).unwrap());
    cfg.cores = 4;
    cfg.warmup_per_core = 2_000;
    cfg.accesses_per_core = 4_000;
    cfg.seed = SEED;
    cfg.llc = Some(LlcConfig {
        capacity_bytes: 128 * 1024,
        ways: 8,
        line_bytes,
    });
    cfg
}

fn cells() -> Vec<(&'static str, RunConfig)> {
    let mut strict = small(SchemeId::Lot5Parity, "mcf");
    strict.scheme.mem.strict_fifo = true;

    let mut open_page = small(SchemeId::Ck36, "milc");
    open_page.scheme.mem.row_policy = RowPolicy::OpenPage;

    let mut refresh = small(SchemeId::Lot9, "lbm");
    refresh.scheme.mem.model_refresh_timing = true;

    let mut fast_bin = small(SchemeId::RaimParity, "libquantum");
    fast_bin.scheme.mem.speed_factor = 1.16;

    let mut degraded = small(SchemeId::Lot5Parity, "lbm");
    degraded.degraded = Some(DegradedConfig {
        channel: 1,
        pair: 2,
    });

    // one workload per core
    let mut mixed = small(SchemeId::MultiEcc, "gcc");
    mixed.per_core_workloads = Some(
        ["mcf", "gcc", "lbm", "sjeng"]
            .map(|w| WorkloadSpec::lookup(w).unwrap())
            .to_vec(),
    );

    // a recorded trace shorter than the run, so replay wraps around
    let mut replay = small(SchemeId::Raim, "astar");
    replay.trace = Some(Trace::record(replay.workload, 4, 3_000, SEED ^ 0xFF));

    vec![
        ("strict_fifo", strict),
        ("open_page", open_page),
        ("refresh_timing", refresh),
        ("speed_1.16", fast_bin),
        ("degraded_pair", degraded),
        ("per_core_workloads", mixed),
        ("trace_replay", replay),
    ]
}

/// Every statistic of a result on one line; `{:?}` prints a float's
/// shortest round-trip form, so equal lines mean bit-equal floats.
fn fingerprint(label: &str, r: &RunResult) -> String {
    let t = &r.traffic;
    let e = &r.energy;
    format!(
        "{label} {} {} | traffic {} {} {} {} {} | llc {} {} {} | mem {} {:?} | \
         energy {:?} {:?} {:?} {:?} {:?} {:?} {:?}",
        r.instructions,
        r.cycles,
        t.data_read_units,
        t.data_write_units,
        t.ecc_read_units,
        t.ecc_write_units,
        t.faulty_ecc_units,
        r.llc.hits,
        r.llc.misses,
        r.llc.writebacks,
        r.mem_requests,
        r.avg_mem_latency,
        e.activate_pj,
        e.read_pj,
        e.write_pj,
        e.refresh_pj,
        e.bg_active_pj,
        e.bg_standby_pj,
        e.bg_sleep_pj,
    )
}

/// Recorded before the ledger and LLC layouts were reworked for speed
/// (binary-searched `Vec` ledgers, struct-of-arrays LLC).
const GOLDEN: &[&str] = &[
    "strict_fifo 591538 86031 | traffic 15864 4402 2882 2882 0 | llc 1673 18723 7284 | mem 26030 99.47810218978103 | energy 611132340.0 185810352.0 86970960.0 86401595.07692307 462679830.0 36532620.0 126903024.0",
    "open_page 700299 58953 | traffic 22164 7356 0 0 0 | llc 4918 11082 3678 | mem 14760 73.05630081300814 | energy 2352028104.0 355067280.0 138498768.0 50151770.58461539 509055840.0 171396.0 0.0",
    "refresh_timing 629074 54489 | traffic 15919 7241 0 2351 0 | llc 5024 18242 9592 | mem 25511 52.929481400180315 | energy 1029062718.0 177656040.0 128801376.0 46354211.44615385 364590180.0 19125247.5 19802070.0",
    "speed_1.16 667644 56245 | traffic 15950 3990 1128 1128 0 | llc 2855 17080 5118 | mem 22196 51.25072085060371 | energy 1798039007.4240274 267055219.9827325 93699698.04081279 62528933.68615382 560944612.7999948 22432348.22400002 26154599.327999987",
    "degraded_pair 629074 53709 | traffic 15922 7251 2770 2770 465 | llc 5048 18987 10179 | mem 29178 57.61923366920282 | energy 685041084.0 188318088.0 121537260.0 53940361.84615385 336774240.0 28343520.0 60609060.0",
    "per_core_workloads 1807133 211459 | traffic 15670 5235 0 2744 0 | llc 2842 18406 7979 | mem 23649 45.730432576430296 | energy 953953362.0 174877200.0 107142012.0 179889797.9076923 476330760.0 63772663.5 363614346.0",
    "trace_replay 2221483 142770 | traffic 29002 8022 0 0 0 | llc 1499 14501 4011 | mem 18512 58.37651253241141 | energy 3733685280.0 580765050.0 188797770.0 151819421.53846157 1214468100.0 66237412.5 56487780.0",
];

#[test]
fn uncovered_settings_reproduce_golden_results() {
    let got: Vec<String> = cells()
        .iter()
        .map(|(label, cfg)| fingerprint(label, &SimRunner::new(cfg.clone()).run()))
        .collect();
    for (got, want) in got.iter().zip(GOLDEN) {
        assert_eq!(got, want);
    }
    assert_eq!(got.len(), GOLDEN.len());
}
