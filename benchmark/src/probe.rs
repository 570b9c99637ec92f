//! Host-speed probe. Timed metrics are reported at a reference host
//! speed: every round is preceded by this fixed kernel, and its time
//! scales the round's.
//!
//! On a shared host, neighbours slow this benchmark by up to a third for
//! minutes at a time, which no number of rounds averages away. The
//! kernel is a small set-associative cache model with a branch predictor
//! (data-dependent branches over a few hundred KiB of tables), so it
//! slows the way the simulator does; a pointer chase or an ALU chain
//! barely notices the same slowdowns. It is the benchmark's own code, so
//! no change to the program can move it.

use std::hint::black_box;
use std::time::Instant;

/// Kernel steps per probe. A probe of a tenth of a second mostly
/// measures sub-second bursts that say little about the next round.
const STEPS: u64 = 12_000_000;

/// Seconds one probe takes at the reference speed, a typical time on a
/// shared 2-core Intel Xeon VM. Timed metrics are scaled to it.
pub const REFERENCE_S: f64 = 0.25;

fn time_kernel() -> f64 {
    let t0 = Instant::now();
    black_box(kernel(black_box(STEPS)));
    t0.elapsed().as_secs_f64()
}

/// Seconds the kernel takes, run on as many threads at once as the
/// workload keeps busy (mean over them). With one, it runs on the
/// calling thread, which then runs the round on the same core.
pub fn measure(threads: usize) -> f64 {
    if threads <= 1 {
        return time_kernel();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(time_kernel)).collect();
        handles.into_iter().map(|h| h.join().expect("probe thread panicked")).collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// Cache-model steps: a mix of strided and random line addresses looked
/// up in 4096 sets × 8 ways with LRU replacement, plus a 2-bit branch
/// predictor trained on a data-dependent outcome. Returns hits plus
/// mispredictions, so the work cannot be optimised away.
fn kernel(steps: u64) -> u64 {
    const SETS: usize = 4096;
    const WAYS: usize = 8;
    let mut tags = vec![u64::MAX; SETS * WAYS];
    let mut stamps = vec![0u64; SETS * WAYS];
    let mut counters = vec![0u8; 1 << 14];
    let mut rng = crate::inputs::SplitMix64::new(0x9_0BE);
    let (mut hits, mut mispredicts) = (0, 0);
    for i in 0..steps {
        let z = rng.next_u64();
        let addr = if z & 3 == 0 { (z >> 20) & 0xFF_FFFF } else { (i * 64) & 0x3F_FFFF };
        let line = addr >> 6;
        let set = (line as usize & (SETS - 1)) * WAYS;
        let ways = set..set + WAYS;
        match ways.clone().find(|&w| tags[w] == line) {
            Some(w) => {
                hits += 1;
                stamps[w] = i;
            }
            None => {
                let victim = ways.min_by_key(|&w| stamps[w]).expect("ways is non-empty");
                tags[victim] = line;
                stamps[victim] = i;
            }
        }
        let counter = &mut counters[(z >> 40) as usize & ((1 << 14) - 1)];
        let taken = (z >> 7) & 7 != 0;
        if (*counter >= 2) != taken {
            mispredicts += 1;
        }
        *counter = if taken { (*counter + 1).min(3) } else { counter.saturating_sub(1) };
    }
    hits + mispredicts
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `REFERENCE_S` is only meaningful for this exact kernel: a change
    /// to it must re-measure the reference, and this value with it.
    #[test]
    fn kernel_is_pinned() {
        assert_eq!(kernel(100_000), 48_119);
    }
}
