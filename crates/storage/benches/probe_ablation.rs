//! Probe-throughput series for the access-path kernel.
//!
//! Hand-timed cold seek and full-depth descend workloads against the
//! columnar level-trie (`TrieIndex::probe` — contiguous per-level value
//! arrays with the gallop + branch-free bisect + SIMD-tail `lower_bound`
//! kernel), plus its build time and resident bytes, written to
//! `BENCH_probe.json` at the repo root. Through PR 12 this also measured
//! the row-major strided layout (a sorted projection probed through the
//! flat `Relation::probe` representation, since deleted); the recorded
//! ratios — columnar 1.63× on seeks, 1.38× on descends at n = 16384 — live
//! in CHANGES.md and ARCHITECTURE.md.
//!
//! ```sh
//! cargo bench -p fdjoin-storage --bench probe_ablation   # ≈ 4 s
//! ```

use fdjoin_storage::{Relation, TrieIndex, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn workload(n: usize) -> Relation {
    let mut rng = StdRng::seed_from_u64(42);
    let mut rel = Relation::from_rows(
        vec![0, 1, 2],
        (0..n).map(|_| {
            [
                rng.gen_range(0..n as u64 / 8),
                rng.gen_range(0..64u64),
                rng.gen_range(0..n as u64),
            ]
        }),
    );
    rel.sort_dedup();
    rel
}

/// The layout's numbers over the kernel workloads.
struct KernelSeries {
    build_ns: u128,
    resident_bytes: usize,
    seek_ops_per_sec: f64,
    descend_ops_per_sec: f64,
}

/// Run `pass` (which returns its op count) repeatedly for at least
/// `window`, after one warmup pass; returns ops per second, best of three
/// windows (the max filters out scheduler noise, which only ever slows a
/// window down).
fn time_ops<F: FnMut() -> usize>(mut pass: F, window: Duration) -> f64 {
    black_box(pass());
    let mut best = 0f64;
    for _ in 0..3 {
        let start = Instant::now();
        let mut ops = 0usize;
        let elapsed = loop {
            ops += pass();
            let e = start.elapsed();
            if e >= window {
                break e;
            }
        };
        best = best.max(ops as f64 / elapsed.as_secs_f64());
    }
    best
}

/// The seek workload: one fresh root cursor per target, each paying a
/// full `lower_bound` over the widest trie level — the cold-probe kernel
/// cost that dominates Generic-Join's intersection loops. (A leapfrog
/// over *sorted* targets advances one or two gallop steps per seek and
/// measures cursor overhead, not the search kernel.)
fn seek_pass(ix: &TrieIndex, targets: &[Value]) -> usize {
    let mut hits = 0usize;
    for &t in targets {
        if ix.probe().seek(t).is_some() {
            hits += 1;
        }
    }
    black_box(hits);
    targets.len()
}

/// The descend workload: full-depth point probes (one fresh cursor per
/// key), half drawn from real rows, half random — the Generic-Join /
/// expansion access pattern.
fn descend_pass(ix: &TrieIndex, keys: &[[Value; 3]]) -> usize {
    let mut hits = 0usize;
    for k in keys {
        let mut p = ix.probe();
        if p.descend_all(k) {
            hits += p.len();
        }
    }
    black_box(hits);
    keys.len()
}

fn kernel_ablation() -> (KernelSeries, usize, usize) {
    let n = 1 << 14;
    let n_keys = 4096usize;
    let window = Duration::from_millis(500);
    // Column 2 (domain 0..n) first: the root level is wide, so the seek
    // kernel runs over the largest array the layout offers.
    let order = [2u32, 0, 1];
    let rel = workload(n);
    let mut rng = StdRng::seed_from_u64(7);
    let seek_targets: Vec<Value> = (0..n_keys).map(|_| rng.gen_range(0..n as u64)).collect();
    let descend_keys: Vec<[Value; 3]> = (0..n_keys)
        .map(|i| {
            if i % 2 == 0 {
                let r = rel.row(rng.gen_range(0..rel.len()));
                [r[2], r[0], r[1]]
            } else {
                [
                    rng.gen_range(0..n as u64),
                    rng.gen_range(0..n as u64 / 8),
                    rng.gen_range(0..64u64),
                ]
            }
        })
        .collect();

    let build_ns = (0..10)
        .map(|_| {
            let t = Instant::now();
            black_box(TrieIndex::build(&rel, &order));
            t.elapsed().as_nanos()
        })
        .min()
        .unwrap();
    let ix = TrieIndex::build(&rel, &order);
    let columnar = KernelSeries {
        build_ns,
        resident_bytes: ix.heap_bytes(),
        seek_ops_per_sec: time_ops(|| seek_pass(&ix, &seek_targets), window),
        descend_ops_per_sec: time_ops(|| descend_pass(&ix, &descend_keys), window),
    };
    (columnar, n, n_keys)
}

fn main() {
    let (columnar, n, n_keys) = kernel_ablation();
    println!("kernel series (n = {n}, {n_keys} keys)");
    println!(
        "  columnar:  build {:>9} ns  resident {:>8} B  seek {:>12.0} ops/s  descend {:>12.0} ops/s",
        columnar.build_ns,
        columnar.resident_bytes,
        columnar.seek_ops_per_sec,
        columnar.descend_ops_per_sec
    );

    let json = format!(
        "{{\"bench\":\"probe_ablation\",\"n\":{n},\"keys\":{n_keys},\
         \"columnar\":{{\"build_ns\":{},\"resident_bytes\":{},\
         \"seek_ops_per_sec\":{:.0},\"descend_ops_per_sec\":{:.0}}}}}\n",
        columnar.build_ns,
        columnar.resident_bytes,
        columnar.seek_ops_per_sec,
        columnar.descend_ops_per_sec
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_probe.json");
    std::fs::write(path, json).expect("write BENCH_probe.json");
    println!("  wrote {path}");
}
