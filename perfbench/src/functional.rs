//! The `functional` workload: `ParityMemory` driven directly, healthy and
//! then degraded by one injected chip fault, every read checked against a
//! shadow copy.

use crate::report::Outcome;
use crate::stats;
use ecc_codes::traits::Region;
use ecc_codes::{CorrectionSplit, DetectOutcome, MemoryEcc};
use ecc_parity::{LineLoc, MemError, ParityConfig, ParityMemory};
use mem_faults::{ChipLocation, FaultInstance, FaultMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resilience::{scheme_by_name, ShadowMemory};
use std::hint::black_box;
use std::time::Instant;

/// Schemes exercised, by `resilience::scheme_by_name` name: the cheapest
/// codec, the most expensive one (about 3.5x per access) and the DIMM-kill
/// parity scheme.
pub const SCHEMES: [&str; 3] = ["lotecc5", "chipkill36", "raimparity"];

/// The resilience soak's memory shape: 4 channels of 4 banks, 24 rows of
/// 8 lines, pair threshold 4.
const SHAPE: ParityConfig = ParityConfig {
    channels: 4,
    banks_per_channel: 4,
    data_rows: 24,
    lines_per_row: 8,
    threshold: 4,
};

/// Random accesses before the fault (2 reads : 1 write).
const HEALTHY_OPS: usize = 3_000;

/// Accesses after the fault; half aim at the faulty bank pair so the pair
/// counter reaches the threshold and degraded reads follow.
const DEGRADED_OPS: usize = 3_000;

/// Host time and counts per `ParityMemory` entry point.
#[derive(Debug, Default)]
pub struct CoreLayers {
    /// `write_lines`, seconds.
    pub write_lines_s: f64,
    /// `write`, seconds.
    pub write_s: f64,
    /// `read`, seconds.
    pub read_s: f64,
    /// `scrub`, seconds.
    pub scrub_s: f64,
    /// Read latencies of the current round, microseconds.
    pub read_us: Vec<f64>,
    /// Operations issued: lines written, lines read, lines scrubbed.
    pub ops: u64,
    reads: u64,
    writes: u64,
    parity_reconstructions: u64,
    ecc_line_corrections: u64,
    parity_updates: u64,
    pairs_migrated: u64,
    retired_pages: u64,
    encode_ns: f64,
    correct_ns: f64,
    codec_lines: u64,
    /// Reads and replayed lines whose corruption aliased through the
    /// scheme's detection code.
    pub aliased: u64,
}

impl CoreLayers {
    /// Time spent inside `ParityMemory`.
    pub fn busy_s(&self) -> f64 {
        self.write_lines_s + self.write_s + self.read_s + self.scrub_s
    }
}

fn seed_of(seed: u64, scheme: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (scheme as u64 + 1).wrapping_mul(0x94D0_49BB_1331_11EB)
}

struct Env {
    mem: ParityMemory<Box<dyn CorrectionSplit>>,
    shadow: ShadowMemory,
    rng: StdRng,
    line_bytes: usize,
}

impl Env {
    fn random_loc(&mut self) -> LineLoc {
        LineLoc {
            bank: self.rng.gen_range(0..SHAPE.banks_per_channel),
            row: self.rng.gen_range(0..SHAPE.data_rows),
            line: self.rng.gen_range(0..SHAPE.lines_per_row),
        }
    }

    fn random_data(&mut self) -> Vec<u8> {
        (0..self.line_bytes).map(|_| self.rng.gen()).collect()
    }

    /// A refusal is expected only for a page the health table retired.
    fn retired(&self, channel: usize, loc: &LineLoc) -> bool {
        self.mem.health().is_retired(channel, loc.bank, loc.row)
    }

    /// One 2:1 read/write access, checked against the shadow.
    fn access(&mut self, channel: usize, loc: LineLoc, l: &mut CoreLayers, out: &mut Outcome) {
        l.ops += 1;
        if self.rng.gen_range(0..3) == 0 {
            let data = self.random_data();
            let t = Instant::now();
            let res = self.mem.write(channel, loc, &data);
            l.write_s += t.elapsed().as_secs_f64();
            let ok = match res {
                Ok(()) => {
                    self.shadow.set(channel, &loc, &data);
                    true
                }
                Err(MemError::RetiredPage) => self.retired(channel, &loc),
                Err(e) => {
                    eprintln!("perfbench: write ch{channel} {loc:?} failed: {e}");
                    false
                }
            };
            out.check(ok);
        } else {
            let t = Instant::now();
            let res = self.mem.read(channel, loc);
            let s = t.elapsed().as_secs_f64();
            l.read_s += s;
            l.read_us.push(s * 1e6);
            let ok = match res {
                Ok(got) => {
                    let golden = self.shadow.get(channel, &loc).expect("filled");
                    if got == golden {
                        true
                    } else if self.mem.ecc().detection_of(&got)
                        == self.mem.ecc().detection_of(golden)
                    {
                        // The resilience soak's rule: wrong bytes whose
                        // detection bits equal the golden line's aliased
                        // through the scheme's detection code (LOT-ECC5's
                        // checksum, ~2^-16 per line, its published
                        // coverage); no implementation could have flagged
                        // them. Counted apart, not as a failure.
                        l.aliased += 1;
                        eprintln!("perfbench: read ch{channel} {loc:?} aliased through detection");
                        true
                    } else {
                        eprintln!("perfbench: read ch{channel} {loc:?} returned wrong data");
                        false
                    }
                }
                Err(MemError::RetiredPage) => self.retired(channel, &loc),
                Err(e) => {
                    eprintln!("perfbench: read ch{channel} {loc:?} failed: {e}");
                    false
                }
            };
            out.check(ok);
        }
    }
}

/// The codec's public calls replayed on this round's fill lines: batched
/// encode, then correction of each codeword with `chip`'s data and
/// detection bytes corrupted by random non-zero masks (the stored bytes a
/// chip fault hits).
fn replay_codec(
    ecc: &dyn CorrectionSplit,
    lines: &[Vec<u8>],
    chip: usize,
    rng: &mut StdRng,
    l: &mut CoreLayers,
    out: &mut Outcome,
) {
    let refs: Vec<&[u8]> = lines.iter().map(Vec::as_slice).collect();
    let t = Instant::now();
    let mut cws = black_box(ecc.encode_lines(&refs));
    l.encode_ns += t.elapsed().as_nanos() as f64;
    let layout = ecc.chip_layout();
    for cw in &mut cws {
        for span in &layout[chip] {
            let region = match span.region {
                Region::Data => &mut cw.data,
                Region::Detection => &mut cw.detection,
                Region::Correction => continue,
            };
            for b in &mut region[span.start..span.start + span.len] {
                *b ^= rng.gen_range(1..=255u8);
            }
        }
    }
    // Corruptions the detection code misses (see `Env::access`) are not
    // the correction path's to repair.
    let detected: Vec<bool> = cws
        .iter()
        .map(|cw| ecc.detect(&cw.data, &cw.detection) != DetectOutcome::Clean)
        .collect();
    let t = Instant::now();
    let fixed: Vec<bool> = cws
        .iter_mut()
        .map(|cw| {
            ecc.correct(&mut cw.data, &cw.detection, &cw.correction, None)
                .is_ok()
        })
        .collect();
    l.correct_ns += t.elapsed().as_nanos() as f64;
    let mut wrong = 0;
    for (((ok, cw), line), det) in fixed.iter().zip(&cws).zip(lines).zip(detected) {
        if !det {
            l.aliased += 1;
            continue;
        }
        let good = *ok && cw.data == *line;
        wrong += u64::from(!good);
        out.check(good);
    }
    if wrong > 0 {
        eprintln!(
            "perfbench: {} failed to correct {wrong} of {} lines with chip {chip} corrupted",
            ecc.name(),
            lines.len()
        );
    }
    l.codec_lines += lines.len() as u64;
}

/// One scheme's round: set-up, healthy fill, mixed traffic, one chip
/// fault with degraded traffic, scrub. Returns the set-up seconds.
fn round(name: &str, seed: u64, trace: bool, l: &mut CoreLayers, out: &mut Outcome) -> f64 {
    let t = Instant::now();
    let ecc = scheme_by_name(name).expect("benchmark scheme exists");
    let mut env = Env {
        line_bytes: ecc.data_bytes(),
        mem: ParityMemory::new(ecc, SHAPE),
        shadow: ShadowMemory::new(
            SHAPE.channels,
            SHAPE.banks_per_channel,
            SHAPE.data_rows,
            SHAPE.lines_per_row,
        ),
        rng: StdRng::seed_from_u64(seed),
    };
    let setup = t.elapsed().as_secs_f64();

    // Healthy fill, one batched write per channel.
    let mut fill_lines = Vec::new();
    for channel in 0..SHAPE.channels {
        let mut batch = Vec::new();
        for bank in 0..SHAPE.banks_per_channel {
            for row in 0..SHAPE.data_rows {
                for line in 0..SHAPE.lines_per_row {
                    batch.push((LineLoc { bank, row, line }, env.random_data()));
                }
            }
        }
        let items: Vec<(usize, LineLoc, &[u8])> = batch
            .iter()
            .map(|(loc, d)| (channel, *loc, d.as_slice()))
            .collect();
        let t = Instant::now();
        let results = env.mem.write_lines(&items);
        l.write_lines_s += t.elapsed().as_secs_f64();
        for ((loc, data), res) in batch.iter().zip(results) {
            l.ops += 1;
            if res.is_ok() {
                env.shadow.set(channel, loc, data);
            }
            out.check(res.is_ok());
        }
        fill_lines.extend(batch.into_iter().map(|(_, d)| d));
    }

    for _ in 0..HEALTHY_OPS {
        let channel = env.rng.gen_range(0..SHAPE.channels);
        let loc = env.random_loc();
        env.access(channel, loc, l, out);
    }

    // One permanent whole-bank fault of one chip: within every scheme's
    // single-device correction envelope.
    let fault_channel = env.rng.gen_range(0..SHAPE.channels);
    let fault_bank = env.rng.gen_range(0..SHAPE.banks_per_channel);
    // A chip that holds data bytes: `ParityMemory` passes no erasure hint,
    // and without one a fault confined to a detection-only device (RAIM's
    // ninth chips) is outside what the codes correct.
    let data_chips: Vec<usize> = env
        .mem
        .ecc()
        .chip_layout()
        .iter()
        .enumerate()
        .filter(|(_, spans)| spans.iter().any(|s| s.region == Region::Data))
        .map(|(chip, _)| chip)
        .collect();
    let chip = data_chips[env.rng.gen_range(0..data_chips.len())];
    let pattern_seed = env.rng.gen();
    env.mem.inject_fault(FaultInstance {
        chip: ChipLocation {
            channel: fault_channel,
            rank: 0,
            chip,
        },
        mode: FaultMode::SingleBank,
        bank: fault_bank as u32,
        row: 0,
        line: 0,
        pattern_seed,
    });
    for _ in 0..DEGRADED_OPS {
        let (channel, loc) = if env.rng.gen_range(0..2) == 0 {
            let mut loc = env.random_loc();
            loc.bank = (fault_bank & !1) + env.rng.gen_range(0..2usize);
            (fault_channel, loc)
        } else {
            (env.rng.gen_range(0..SHAPE.channels), env.random_loc())
        };
        env.access(channel, loc, l, out);
    }

    let t = Instant::now();
    let report = env.mem.scrub();
    l.scrub_s += t.elapsed().as_secs_f64();
    l.ops += report.lines_scanned;
    if report.uncorrectable != 0 {
        eprintln!("perfbench: {name} scrub found uncorrectable lines: {report:?}");
    }
    out.check(report.uncorrectable == 0);

    let st = *env.mem.stats();
    // The phases must have done what they claim: parity reconstructions
    // before the pair migrated, stored-ECC corrections after.
    let phases_ok = st.pairs_migrated == 1
        && st.parity_reconstructions > 0
        && st.ecc_line_corrections > 0
        && st.uncorrectable == 0;
    if !phases_ok {
        eprintln!("perfbench: {name} phases incomplete: {st:?}");
    }
    out.check(phases_ok);
    l.reads += st.reads;
    l.writes += st.writes;
    l.parity_reconstructions += st.parity_reconstructions;
    l.ecc_line_corrections += st.ecc_line_corrections;
    l.parity_updates += st.parity_updates;
    l.pairs_migrated += st.pairs_migrated;
    l.retired_pages += env.mem.health().retired_count() as u64;

    if trace {
        replay_codec(
            env.mem.ecc().as_ref(),
            &fill_lines,
            chip,
            &mut env.rng,
            l,
            out,
        );
    }
    setup
}

/// Run identical rounds of every scheme while `window` allows. Untraced: sets the
/// end-to-end metrics. Traced: sets the `core.*`, `ecc.*` and `codec.*`
/// metrics. Returns the layers and the wall time of the rounds.
///
/// Other tenants of the host slow everything by 10-30% for seconds at a
/// time, so the end-to-end figures are those of the best round: the
/// highest round throughput, and the lowest per-round read p50 and tail.
pub fn run(
    seed: u64,
    mut window: stats::Window,
    trace: bool,
    out: &mut Outcome,
) -> (CoreLayers, f64) {
    let mut total = CoreLayers::default();
    let (mut setup, mut rates, mut p50s, mut tails) = (vec![], vec![], vec![], vec![]);
    let mut tail_pct = 0.0;
    let codec_before = obs::metrics::counter("codec.batch.lines").get();
    let wall = Instant::now();
    while window.next() {
        let (ops, busy) = (total.ops, total.busy_s());
        total.read_us.clear();
        for (i, name) in SCHEMES.iter().enumerate() {
            setup.push(round(name, seed_of(seed, i), trace, &mut total, out));
        }
        rates.push((total.ops - ops) as f64 / (total.busy_s() - busy));
        p50s.push(stats::median(&total.read_us));
        let tail = stats::tail(&total.read_us).expect("thousands of reads per round");
        tails.push(tail.value);
        tail_pct = tail.pct;
    }
    let wall = wall.elapsed().as_secs_f64();
    if total.aliased > 0 {
        eprintln!(
            "perfbench: {} corruptions aliased through detection",
            total.aliased
        );
    }
    if trace {
        let l = &total;
        out.set("core.write_lines.s", l.write_lines_s);
        out.set("core.write.s", l.write_s);
        out.set("core.read.s", l.read_s);
        out.set("core.scrub.s", l.scrub_s);
        out.set("core.reads", l.reads as f64);
        out.set("core.writes", l.writes as f64);
        out.set(
            "core.parity_reconstructions",
            l.parity_reconstructions as f64,
        );
        out.set("core.ecc_line_corrections", l.ecc_line_corrections as f64);
        out.set("core.parity_updates", l.parity_updates as f64);
        out.set("core.pairs_migrated", l.pairs_migrated as f64);
        out.set("core.health.retired_pages", l.retired_pages as f64);
        out.set(
            "ecc.encode_lines.ns_per_line",
            l.encode_ns / l.codec_lines as f64,
        );
        out.set(
            "ecc.correction.ns_per_line",
            l.correct_ns / l.codec_lines as f64,
        );
        out.set(
            "codec.batch.lines",
            (obs::metrics::counter("codec.batch.lines").get() - codec_before) as f64,
        );
    } else {
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        out.set("setup_s", stats::median(&setup));
        out.set("ops_per_s", rates.iter().copied().fold(0.0, f64::max));
        out.set("p50_us", min(&p50s));
        out.set("tail_us", min(&tails));
        eprintln!(
            "perfbench: best of {} rounds (median round {:.0} ops/s); tail_us is \
             p{tail_pct:.1} of a round's {} reads",
            rates.len(),
            stats::median(&rates),
            total.read_us.len()
        );
    }
    (total, wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scheme_round_is_clean_and_degrades() {
        for (i, name) in SCHEMES.iter().enumerate() {
            let mut l = CoreLayers::default();
            let mut out = Outcome::default();
            round(name, seed_of(5, i), true, &mut l, &mut out);
            assert_eq!(out.failed, 0, "{name}");
            assert_eq!(l.pairs_migrated, 1, "{name}");
            assert!(l.parity_reconstructions > 0 && l.ecc_line_corrections > 0);
        }
    }
}
