//! The simulator workloads (`sim_bin2`, `sim_bin1`) and the traced
//! replica of `SimRunner::run` that splits host time across the layers of
//! `mem-sim` and `dram-sim`.

use crate::report::Outcome;
use crate::stats;
use dram_sim::{MemRequest, MemorySystem};
use mem_sim::cpu::CoreState;
use mem_sim::llc::{Llc, LlcConfig, LlcStats};
use mem_sim::runner::{TrafficCounters, FAULTY_ECC_REGION_BASE};
use mem_sim::schemes::{ECC_REGION_BASE, XOR_REGION_BASE};
use mem_sim::{EccTraffic, RunConfig, RunResult, SchemeConfig, SchemeId, SimRunner, SystemScale};
use mem_sim::{Workload, WorkloadSpec};
use std::hint::black_box;
use std::time::Instant;

/// Schemes of every sim cell mix: the inline baseline, LOT-ECC with its
/// write-only ECC lines, and the two ECC Parity schemes with XOR lines.
pub const SCHEMES: [SchemeId; 4] = [
    SchemeId::Ck36,
    SchemeId::Lot9,
    SchemeId::Lot5Parity,
    SchemeId::RaimParity,
];

/// DRAM-bound Bin2 workloads.
pub const BIN2: [&str; 4] = ["lbm", "mcf", "milc", "libquantum"];

/// LLC- and generator-bound Bin1 workloads.
pub const BIN1: [&str; 4] = ["sjeng", "gcc", "astar", "ferret"];

/// Per-core references: a quarter of `RunConfig::paper`'s warmup, which
/// fills the LLC to within a few points of the paper-scale hit ratios, and
/// a sixteenth of its measured accesses, so a run repeats each cell forty
/// to sixty times (see [`run`]).
const WARMUP_PER_CORE: usize = 12_500;
const ACCESSES_PER_CORE: usize = 6_250;

/// Seed variants with recorded reference statistics.
pub const VARIANTS: u64 = 8;

/// `RunConfig::paper`'s seed; variant 0 simulates exactly it.
const PAPER_SEED: u64 = 0xECC_9A817;

/// Per-core virtual address stride of `SimRunner` (512MB per core, in 64B
/// lines). The traced loop must match it; the exactness check against
/// `SimRunner::run` catches any drift.
const CORE_STRIDE: u64 = 8 * 1024 * 1024;

/// The traced loop times one step in this many; sampled times are scaled
/// back up by the stride.
pub const TRACE_STRIDE: u64 = 16;

/// Reference statistics recorded with `perfbench --record-sim-reference`.
const REFERENCE: &str = include_str!("../sim_reference.tsv");

/// Which simulator cell mix a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bin {
    /// `sim_bin2`.
    Two,
    /// `sim_bin1`.
    One,
}

impl Bin {
    /// The bin's workloads.
    pub fn workloads(self) -> [&'static str; 4] {
        match self {
            Bin::Two => BIN2,
            Bin::One => BIN1,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Bin::Two => "bin2",
            Bin::One => "bin1",
        }
    }
}

/// One simulator cell: scheme × workload × seed variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Memory-protection scheme.
    pub scheme: SchemeId,
    /// Workload name.
    pub workload: &'static str,
    /// Seed variant in `0..VARIANTS`.
    pub variant: u64,
}

impl Cell {
    /// The cell's simulation inputs.
    pub fn config(&self) -> RunConfig {
        let spec = WorkloadSpec::lookup(self.workload).expect("benchmark workload exists");
        let mut cfg = RunConfig::paper(
            SchemeConfig::build(self.scheme, SystemScale::QuadEquivalent),
            spec,
        );
        cfg.warmup_per_core = WARMUP_PER_CORE;
        cfg.accesses_per_core = ACCESSES_PER_CORE;
        cfg.seed = PAPER_SEED.wrapping_add(self.variant.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        cfg
    }
}

/// The cells of a run: the bin's 16-cell mix at the variant `seed` picks.
pub fn pass_cells(bin: Bin, seed: u64) -> Vec<Cell> {
    let variant = seed % VARIANTS;
    bin.workloads()
        .iter()
        .flat_map(|&workload| {
            SCHEMES.iter().map(move |&scheme| Cell {
                scheme,
                workload,
                variant,
            })
        })
        .collect()
}

/// Simulated references (warmup + measured, all cores) of one cell.
pub fn refs_of(cfg: &RunConfig) -> u64 {
    (cfg.cores * (cfg.warmup_per_core + cfg.accesses_per_core)) as u64
}

/// FNV-1a digest of every simulated statistic of a result: cycles,
/// instructions, traffic, energy, LLC counts, requests and latency.
pub fn digest(r: &RunResult) -> u64 {
    let t = &r.traffic;
    let e = &r.energy;
    let words = [
        r.cycles,
        r.instructions,
        r.mem_requests,
        t.data_read_units,
        t.data_write_units,
        t.ecc_read_units,
        t.ecc_write_units,
        t.faulty_ecc_units,
        r.llc.hits,
        r.llc.misses,
        r.llc.writebacks,
        e.activate_pj.to_bits(),
        e.read_pj.to_bits(),
        e.write_pj.to_bits(),
        e.refresh_pj.to_bits(),
        e.bg_active_pj.to_bits(),
        e.bg_standby_pj.to_bits(),
        e.bg_sleep_pj.to_bits(),
        r.avg_mem_latency.to_bits(),
    ];
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn scheme_name(id: SchemeId) -> &'static str {
    SchemeConfig::build(id, SystemScale::QuadEquivalent).name
}

/// One line of `sim_reference.tsv`.
fn reference_line(bin: Bin, cell: &Cell, r: &RunResult) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:016x}",
        bin.label(),
        cell.variant,
        scheme_name(cell.scheme),
        cell.workload,
        r.cycles,
        r.instructions,
        r.mem_requests,
        digest(r)
    )
}

/// Is `r` the recorded result of `cell`?
fn matches_reference(bin: Bin, cell: &Cell, r: &RunResult) -> bool {
    let want = reference_line(bin, cell, r);
    REFERENCE.lines().any(|l| l == want)
}

/// Print the reference table for every cell of both bins and variants.
pub fn record_reference() {
    println!("# bin\tvariant\tscheme\tworkload\tcycles\tinstructions\tmem_requests\tdigest");
    for bin in [Bin::Two, Bin::One] {
        for variant in 0..VARIANTS {
            for cell in pass_cells(bin, variant) {
                let r = SimRunner::new(cell.config()).run();
                println!("{}", reference_line(bin, &cell, &r));
            }
        }
    }
}

/// Replay, from outside, every constructor `SimRunner::run` calls for a
/// cell, with the same lifetimes — the LLC and the generators for the
/// whole cell, a memory system and cores for the warmup and then again
/// for the measured phase — and drop the result: the per-cell set-up
/// cost. `SimRunner::run` builds the same state inside itself, so this
/// cost is also part of the time `ops_per_s` is taken over.
fn construct_cell(cfg: &RunConfig) {
    let llc = Llc::new(LlcConfig::paper(cfg.scheme.mem.line_bytes));
    let gens: Vec<Workload> = (0..cfg.cores)
        .map(|c| Workload::new(cfg.workload, cfg.seed.wrapping_add(c as u64 * 0x9E37)))
        .collect();
    for _phase in 0..2 {
        let mem = MemorySystem::new(cfg.scheme.mem.clone());
        let cores: Vec<CoreState> = (0..cfg.cores)
            .map(|_| CoreState::new(cfg.core_config))
            .collect();
        black_box((mem, cores));
    }
    black_box((llc, gens));
}

/// Untraced run: the run's 16 cells through `SimRunner::run`, pass after
/// pass for `seconds`, each result checked against the recorded reference.
///
/// Other tenants of the host slow the simulator for seconds at a time (a
/// pass's median cell time is 1.05-1.8x those cells' best), so each cell's
/// host time is its best over the passes. A pass is short (under a
/// second), so every cell returns often enough to meet each quiet moment
/// of the run. `ops_per_s` is the cells' references over the sum of their
/// best times; `p50_us` is the median of the 16 best times and `tail_us`
/// the largest, the slowest cell of the mix: no percentile above the
/// median has ten of 16 samples beyond it.
pub fn run(bin: Bin, seed: u64, seconds: u64, out: &mut Outcome) {
    let cells = pass_cells(bin, seed);
    let mut best = vec![f64::INFINITY; cells.len()];
    let mut setup = Vec::new();
    let mut pass_rates = Vec::new();
    let mut window = stats::Window::seconds(seconds);
    while window.next() {
        let (mut refs, mut secs) = (0u64, 0.0f64);
        for (cell, best) in cells.iter().zip(&mut best) {
            let t = Instant::now();
            let cfg = cell.config();
            construct_cell(&cfg);
            let runner = SimRunner::new(cfg.clone());
            setup.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let r = runner.run();
            let s = t.elapsed().as_secs_f64();
            let ok = matches_reference(bin, cell, &r);
            if !ok {
                eprintln!(
                    "perfbench: {} variant {} {:?}/{} differs from the recorded reference: {}",
                    bin.label(),
                    cell.variant,
                    cell.scheme,
                    cell.workload,
                    reference_line(bin, cell, &r)
                );
            }
            out.check(ok);
            refs += refs_of(&cfg);
            secs += s;
            *best = best.min(s);
        }
        pass_rates.push(refs as f64 / secs);
    }
    eprintln!("perfbench: refs/s per pass {pass_rates:.0?}");
    let refs: u64 = cells.iter().map(|c| refs_of(&c.config())).sum();
    out.set("setup_s", stats::median(&setup));
    out.set("ops_per_s", refs as f64 / best.iter().sum::<f64>());
    let best_us: Vec<f64> = best.iter().map(|s| s * 1e6).collect();
    out.set("p50_us", stats::median(&best_us));
    out.set("tail_us", best_us.iter().copied().fold(0.0, f64::max));
    eprintln!(
        "perfbench: {} cells, best of {} passes; tail_us is the slowest cell's time (p100)",
        best_us.len(),
        pass_rates.len()
    );
}

// ---- traced replica of SimRunner::run --------------------------------------

/// Host time and work per simulator layer, summed over traced cells.
#[derive(Debug, Default, Clone)]
pub struct SimLayers {
    /// `Workload::next_ref`, seconds.
    pub next_ref_s: f64,
    /// Core pick plus `CoreState` calls, seconds.
    pub cpu_s: f64,
    /// `Llc::access`, seconds.
    pub llc_s: f64,
    /// `SchemeConfig::ecc_line_of`, seconds.
    pub ecc_line_of_s: f64,
    /// `MemorySystem::submit`, seconds.
    pub submit_s: f64,
    /// `MemorySystem::finalize` + `energy`, seconds.
    pub finalize_s: f64,
    /// References generated.
    pub refs: u64,
    /// LLC accesses (data, ECC and XOR lines).
    pub llc_accesses: u64,
    /// ECC/XOR line lookups.
    pub ecc_line_accesses: u64,
    /// DRAM requests submitted.
    pub requests: u64,
    /// LLC hits, misses and writebacks of the measured phases (the warmup
    /// fills the cache; its cold misses would hide the steady state).
    pub llc: LlcStats,
    /// Measured-phase simulated cycles.
    pub cycles: u64,
    /// Measured-phase instructions.
    pub instructions: u64,
    /// Measured-phase energy, pJ.
    pub energy_pj: f64,
}

impl SimLayers {
    /// Sum of the per-layer host times.
    pub fn layer_sum_s(&self) -> f64 {
        self.next_ref_s
            + self.cpu_s
            + self.llc_s
            + self.ecc_line_of_s
            + self.submit_s
            + self.finalize_s
    }
}

/// Times one step in `stride`; `start`/`stop` pairs around a layer call
/// add the sampled duration, less the cost of the clock reads themselves,
/// scaled by the stride, to that layer. The clock-read cost is measured in
/// place — an empty interval at every sampled step — because a clock read
/// inside this memory-bound loop costs more than one in a quiet loop.
struct Sampler {
    stride: u64,
    step: u64,
    on: bool,
    empty_s: f64,
    empties: u64,
}

impl Sampler {
    fn new(stride: u64) -> Sampler {
        Sampler {
            stride,
            step: 0,
            on: false,
            empty_s: 0.0,
            empties: 0,
        }
    }

    fn next_step(&mut self) {
        self.on = self.step.is_multiple_of(self.stride);
        self.step += 1;
        if self.on {
            let t = Instant::now();
            self.empty_s += t.elapsed().as_secs_f64();
            self.empties += 1;
        }
    }

    #[inline]
    fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    #[inline]
    fn stop(&self, t: Option<Instant>, acc: &mut f64) {
        if let Some(t) = t {
            let floor = self.empty_s / self.empties as f64;
            *acc += (t.elapsed().as_secs_f64() - floor).max(0.0) * self.stride as f64;
        }
    }
}

struct Traced<'a> {
    cfg: &'a RunConfig,
    units: u64,
    has_ecc: bool,
    llc: Llc,
    gens: Vec<Workload>,
    layers: &'a mut SimLayers,
    sampler: Sampler,
}

/// One cell through the public layer calls in `SimRunner::phase` order,
/// with stride-sampled timers. Supports the live-generator configuration
/// the benchmark cells use (no trace replay, degraded pair or per-core
/// workloads).
pub fn traced_run(cfg: &RunConfig, stride: u64, layers: &mut SimLayers) -> RunResult {
    assert!(cfg.trace.is_none() && cfg.degraded.is_none() && cfg.per_core_workloads.is_none());
    let gens = (0..cfg.cores)
        .map(|c| Workload::new(cfg.workload, cfg.seed.wrapping_add(c as u64 * 0x9E37)))
        .collect();
    let mut t = Traced {
        cfg,
        units: cfg.scheme.units_per_access(),
        has_ecc: !matches!(cfg.scheme.traffic, EccTraffic::Inline),
        llc: Llc::new(
            cfg.llc
                .unwrap_or_else(|| LlcConfig::paper(cfg.scheme.mem.line_bytes)),
        ),
        gens,
        layers,
        sampler: Sampler::new(stride),
    };
    {
        let mut mem = MemorySystem::new(cfg.scheme.mem.clone());
        let mut cores: Vec<CoreState> = (0..cfg.cores)
            .map(|_| CoreState::new(cfg.core_config))
            .collect();
        let mut traffic = TrafficCounters::default();
        let mut reqs = 0;
        t.phase(
            cfg.warmup_per_core,
            &mut cores,
            &mut mem,
            &mut traffic,
            &mut reqs,
        );
    }
    let llc_before = *t.llc.stats();
    let mut mem = MemorySystem::new(cfg.scheme.mem.clone());
    let mut cores: Vec<CoreState> = (0..cfg.cores)
        .map(|_| CoreState::new(cfg.core_config))
        .collect();
    let mut traffic = TrafficCounters::default();
    let mut reqs = 0;
    t.phase(
        cfg.accesses_per_core,
        &mut cores,
        &mut mem,
        &mut traffic,
        &mut reqs,
    );
    let clock = Instant::now();
    for c in &mut cores {
        c.drain_all();
    }
    let cycles = cores.iter().map(|c| c.cycle).max().unwrap_or(0).max(1);
    let instructions = cores.iter().map(|c| c.instructions).sum::<u64>().max(1);
    t.layers.cpu_s += clock.elapsed().as_secs_f64();
    let clock = Instant::now();
    let avg_mem_latency = mem.stats().avg_latency();
    mem.finalize(cycles);
    let energy = mem.energy();
    t.layers.finalize_s += clock.elapsed().as_secs_f64();
    let llc_after = *t.llc.stats();
    t.layers.llc.hits += llc_after.hits - llc_before.hits;
    t.layers.llc.misses += llc_after.misses - llc_before.misses;
    t.layers.llc.writebacks += llc_after.writebacks - llc_before.writebacks;
    t.layers.cycles += cycles;
    t.layers.instructions += instructions;
    t.layers.energy_pj += energy.total_pj();
    RunResult {
        scheme_name: cfg.scheme.name,
        workload_name: cfg.workload.name,
        instructions,
        cycles,
        traffic,
        energy,
        llc: LlcStats {
            hits: llc_after.hits - llc_before.hits,
            misses: llc_after.misses - llc_before.misses,
            writebacks: llc_after.writebacks - llc_before.writebacks,
        },
        mem_requests: reqs,
        avg_mem_latency,
    }
}

impl Traced<'_> {
    fn phase(
        &mut self,
        per_core: usize,
        cores: &mut [CoreState],
        mem: &mut MemorySystem,
        traffic: &mut TrafficCounters,
        reqs: &mut u64,
    ) {
        let mut done = vec![0usize; cores.len()];
        for _ in 0..per_core * cores.len() {
            self.sampler.next_step();
            let t = self.sampler.start();
            let c = (0..cores.len())
                .filter(|&i| done[i] < per_core)
                .min_by_key(|&i| cores[i].cycle)
                .expect("some core unfinished");
            done[c] += 1;
            self.sampler.stop(t, &mut self.layers.cpu_s);

            let t = self.sampler.start();
            let r = self.gens[c].next_ref();
            self.sampler.stop(t, &mut self.layers.next_ref_s);
            self.layers.refs += 1;

            let t = self.sampler.start();
            cores[c].advance_instructions(r.gap_instr);
            self.sampler.stop(t, &mut self.layers.cpu_s);
            let phys64 = c as u64 * CORE_STRIDE + r.line;
            let mem_line = phys64 / self.units;

            let t = self.sampler.start();
            let out = self.llc.access(mem_line, r.is_write);
            self.sampler.stop(t, &mut self.layers.llc_s);
            self.layers.llc_accesses += 1;
            if out.hit {
                let t = self.sampler.start();
                cores[c].charge_llc_hit();
                self.sampler.stop(t, &mut self.layers.cpu_s);
            } else {
                let arrival = cores[c].cycle;
                let comp = self.submit(mem, mem_line, false, arrival);
                *reqs += 1;
                traffic.data_read_units += self.units;
                let t = self.sampler.start();
                cores[c].issue_fill(comp.finish);
                self.sampler.stop(t, &mut self.layers.cpu_s);
                if let Some(victim) = out.writeback {
                    self.writeback(victim, cores[c].cycle, mem, traffic, reqs);
                }
            }
            if r.is_write && self.has_ecc {
                let t = self.sampler.start();
                let eaddr = self
                    .cfg
                    .scheme
                    .ecc_line_of(phys64)
                    .expect("non-inline scheme has ECC lines");
                self.sampler.stop(t, &mut self.layers.ecc_line_of_s);
                self.layers.ecc_line_accesses += 1;
                let t = self.sampler.start();
                let out2 = self.llc.access(eaddr, true);
                self.sampler.stop(t, &mut self.layers.llc_s);
                self.layers.llc_accesses += 1;
                if let Some(victim) = out2.writeback {
                    self.writeback(victim, cores[c].cycle, mem, traffic, reqs);
                }
            }
        }
    }

    fn submit(
        &mut self,
        mem: &mut MemorySystem,
        line_addr: u64,
        is_write: bool,
        arrival: u64,
    ) -> dram_sim::Completion {
        let t = self.sampler.start();
        let comp = mem.submit(MemRequest {
            line_addr,
            is_write,
            arrival,
        });
        self.sampler.stop(t, &mut self.layers.submit_s);
        self.layers.requests += 1;
        comp
    }

    /// `SimRunner::writeback`: the victim's region decides its traffic.
    fn writeback(
        &mut self,
        tag: u64,
        now: u64,
        mem: &mut MemorySystem,
        traffic: &mut TrafficCounters,
        reqs: &mut u64,
    ) {
        if tag >= FAULTY_ECC_REGION_BASE {
            self.submit(mem, tag, true, now);
            *reqs += 1;
            traffic.faulty_ecc_units += 1;
        } else if tag >= XOR_REGION_BASE {
            self.submit(mem, tag, false, now);
            self.submit(mem, tag, true, now);
            *reqs += 2;
            traffic.ecc_read_units += 1;
            traffic.ecc_write_units += 1;
        } else if tag >= ECC_REGION_BASE {
            self.submit(mem, tag, true, now);
            *reqs += 1;
            traffic.ecc_write_units += 1;
        } else {
            self.submit(mem, tag, true, now);
            *reqs += 1;
            traffic.data_write_units += self.units;
        }
    }
}

/// DRAM counters read from `obs` (recording must be on). Row hits and
/// conflicts are not among them: the paper's closed-page policy never
/// produces either.
const DRAM_COUNTERS: [&str; 2] = ["dram.activates", "dram.sched.gap_fills"];

fn dram_counters() -> [u64; 2] {
    DRAM_COUNTERS.map(|n| obs::metrics::counter(n).get())
}

/// Traced pass over `cells`: each cell through [`traced_run`], checked for
/// exact equality with `SimRunner::run` (`expected`, same order). Sets
/// every `sim.*` and `dram.*` per-layer metric; returns the traced wall
/// time and the layer-time sum.
pub fn traced(cells: &[Cell], expected: &[RunResult], out: &mut Outcome) -> (f64, f64) {
    let mut layers = SimLayers::default();
    let before = dram_counters();
    let wall = Instant::now();
    for (cell, want) in cells.iter().zip(expected) {
        let got = traced_run(&cell.config(), TRACE_STRIDE, &mut layers);
        let exact = got.cycles == want.cycles
            && got.mem_requests == want.mem_requests
            && got.energy == want.energy
            && digest(&got) == digest(want);
        if !exact {
            eprintln!(
                "perfbench: traced loop diverged from SimRunner::run on {:?}/{} variant {}: \
                 cycles {} vs {}, requests {} vs {}",
                cell.scheme,
                cell.workload,
                cell.variant,
                got.cycles,
                want.cycles,
                got.mem_requests,
                want.mem_requests
            );
        }
        out.check(exact);
    }
    let wall = wall.elapsed().as_secs_f64();
    let after = dram_counters();
    let l = &layers;
    out.set("sim.workloads.next_ref.s", l.next_ref_s);
    out.set("sim.workloads.refs", l.refs as f64);
    out.set("sim.cpu.s", l.cpu_s);
    out.set("sim.llc.access.s", l.llc_s);
    out.set("sim.llc.accesses", l.llc_accesses as f64);
    out.set(
        "sim.llc.hit_ratio",
        l.llc.hits as f64 / (l.llc.hits + l.llc.misses) as f64,
    );
    out.set("sim.llc.writebacks", l.llc.writebacks as f64);
    out.set("sim.schemes.ecc_line_of.s", l.ecc_line_of_s);
    out.set("sim.schemes.ecc_line_accesses", l.ecc_line_accesses as f64);
    out.set("dram.submit.s", l.submit_s);
    out.set("dram.requests", l.requests as f64);
    for (name, (a, b)) in DRAM_COUNTERS.into_iter().zip(after.iter().zip(before)) {
        out.set(name, (a - b) as f64);
    }
    out.set("dram.finalize.s", l.finalize_s);
    out.set("sim.cycles", l.cycles as f64);
    out.set("sim.instructions", l.instructions as f64);
    out.set("sim.epi_pj", l.energy_pj / l.instructions as f64);
    (wall, l.layer_sum_s())
}

/// Untraced pass over `cells` for the traced run's baseline: results and
/// wall time.
pub fn untraced(cells: &[Cell]) -> (Vec<RunResult>, f64) {
    let wall = Instant::now();
    let results = cells
        .iter()
        .map(|c| SimRunner::new(c.config()).run())
        .collect();
    (results, wall.elapsed().as_secs_f64())
}

/// The two cells traced when the traced workload is not a simulator one,
/// so every simulator layer metric is still measured: a DRAM-bound parity
/// cell and an LLC-bound inline cell.
pub fn companion_cells(seed: u64) -> Vec<Cell> {
    let variant = seed % VARIANTS;
    vec![
        Cell {
            scheme: SchemeId::Lot5Parity,
            workload: "lbm",
            variant,
        },
        Cell {
            scheme: SchemeId::Ck36,
            workload: "sjeng",
            variant,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_sim::CoreConfig;

    fn tiny(scheme: SchemeId, workload: &str) -> RunConfig {
        let built = SchemeConfig::build(scheme, SystemScale::QuadEquivalent);
        let line_bytes = built.mem.line_bytes;
        RunConfig {
            cores: 4,
            warmup_per_core: 2_000,
            accesses_per_core: 5_000,
            seed: 3,
            core_config: CoreConfig::default(),
            llc: Some(LlcConfig {
                capacity_bytes: 128 * 1024,
                ways: 16,
                line_bytes,
            }),
            ..RunConfig::paper(built, WorkloadSpec::lookup(workload).unwrap())
        }
    }

    #[test]
    fn traced_loop_equals_sim_runner_on_tiny_cells() {
        for (scheme, workload) in [
            (SchemeId::Ck36, "sjeng"),
            (SchemeId::Lot9, "mcf"),
            (SchemeId::Lot5Parity, "lbm"),
            (SchemeId::RaimParity, "milc"),
        ] {
            let cfg = tiny(scheme, workload);
            let want = SimRunner::new(cfg.clone()).run();
            for stride in [1, TRACE_STRIDE] {
                let mut layers = SimLayers::default();
                let got = traced_run(&cfg, stride, &mut layers);
                assert_eq!(got.cycles, want.cycles, "{scheme:?}/{workload}");
                assert_eq!(got.mem_requests, want.mem_requests);
                assert_eq!(got.energy, want.energy);
                assert_eq!(got.traffic, want.traffic);
                assert_eq!(got.llc, want.llc);
                assert_eq!(digest(&got), digest(&want));
                assert_eq!(layers.refs, refs_of(&cfg));
                assert!(layers.requests >= want.mem_requests);
                assert!(layers.layer_sum_s() > 0.0);
            }
        }
    }

    #[test]
    fn digest_sees_every_statistic() {
        let want = SimRunner::new(tiny(SchemeId::Lot5Parity, "lbm")).run();
        let mut r = want.clone();
        r.energy.bg_sleep_pj = f64::from_bits(r.energy.bg_sleep_pj.to_bits() + 1);
        assert_ne!(digest(&r), digest(&want));
        let mut r = want.clone();
        r.traffic.ecc_read_units += 1;
        assert_ne!(digest(&r), digest(&want));
    }

    #[test]
    fn seeds_pick_recorded_variants() {
        let cells = pass_cells(Bin::Two, 7);
        assert_eq!(cells.len(), 16);
        assert!(cells.iter().all(|c| c.variant == 7));
        assert!(pass_cells(Bin::One, 9).iter().all(|c| c.variant == 1));
        for bin in [Bin::Two, Bin::One] {
            for v in 0..VARIANTS {
                for cell in pass_cells(bin, v) {
                    let key = format!(
                        "{}\t{}\t{}\t{}\t",
                        bin.label(),
                        v,
                        scheme_name(cell.scheme),
                        cell.workload
                    );
                    assert!(
                        REFERENCE.lines().any(|l| l.starts_with(&key)),
                        "no reference for {key:?}"
                    );
                }
            }
        }
    }
}
