//! Property test: the pipeline's snapshot-accounting [`LoopProfiler`]
//! equals the reference [`LoopMonitor`] on one walk of the trace — for
//! the default spec, a two-phase spec with a prologue and an epilogue,
//! and a tiny one, each under its own seed and under random seeds.
//!
//! Randomness is driven by the repo's own `SplitMix64` (seeded, so
//! failures reproduce exactly), following the pattern of
//! `kernel_properties.rs`.

use mlpa_isa::rng::SplitMix64;
use mlpa_isa::stream::InstructionStream;
use mlpa_isa::Instruction;
use mlpa_phase::loops::{LoopMonitor, LoopProfiler};
use mlpa_sim::functional::Observer;
use mlpa_workloads::spec::{BenchmarkSpec, PhaseSpec, ScriptEntry};
use mlpa_workloads::{CompiledBenchmark, WorkloadStream};

fn specs() -> Vec<BenchmarkSpec> {
    vec![
        BenchmarkSpec::default(),
        BenchmarkSpec {
            name: "loop-prop-multi".into(),
            seed: 11,
            init_insts: 2_000,
            tail_insts: 1_500,
            phases: vec![
                PhaseSpec { name: "a".into(), ..PhaseSpec::default() },
                PhaseSpec { name: "b".into(), ..PhaseSpec::default() },
            ],
            script: (0..6).map(|i| ScriptEntry::new(i % 2, 30_000)).collect(),
        },
        BenchmarkSpec {
            name: "loop-prop-tiny".into(),
            seed: 3,
            init_insts: 100,
            tail_insts: 50,
            phases: vec![PhaseSpec::default()],
            script: vec![ScriptEntry::new(0, 4_000); 2],
        },
    ]
}

#[test]
fn loop_profiler_equals_the_monitor() {
    let mut rng = SplitMix64::new(0x4C4F_4F50_5052_4F46);
    for spec in specs() {
        let seeds: Vec<u64> =
            [spec.seed].into_iter().chain((0..3).map(|_| rng.next_u64())).collect();
        for seed in seeds {
            let cb = CompiledBenchmark::compile(&BenchmarkSpec { seed, ..spec.clone() }).unwrap();
            let mut monitor = LoopMonitor::new(cb.program());
            let mut profiler = LoopProfiler::new(cb.program());
            let (mut stream, mut scratch) = (WorkloadStream::new(&cb), Vec::new());
            // The monitor reads only a block's length, so any slice of
            // the right length drives it.
            let mut nops = Vec::new();
            while let Some(m) = stream.next_block_meta(&mut scratch) {
                let n = m.insts as usize;
                if nops.len() < n {
                    nops.resize(n, Instruction::nop());
                }
                monitor.on_block(m.id, &nops[..n], 0);
                profiler.record(m.id, m.insts);
            }
            let want = monitor.finish();
            assert!(!want.structures.is_empty(), "spec {} seed {seed:#x} has no loop", spec.name);
            assert_eq!(profiler.finish(), want, "spec {} seed {seed:#x}", spec.name);
        }
    }
}
