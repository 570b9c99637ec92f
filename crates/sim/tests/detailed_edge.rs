//! Edge-case behaviour of `DetailedSim::simulate` that is independent
//! of the kernel rewrite: limits landing mid-block, zero-instruction
//! regions, chained region calls versus one long call, and warm-state
//! installation.

use mlpa_isa::stream::SliceStream;
use mlpa_isa::{BlockId, BranchKind, Instruction, OpClass, ProgramBuilder, Reg};
use mlpa_sim::{DetailedSim, MachineConfig, SimMetrics};
use mlpa_workloads::behavior::{InstMix, MemoryPattern};
use mlpa_workloads::spec::{BenchmarkSpec, BlockSpec, PhaseSpec, ScriptEntry};
use mlpa_workloads::{CompiledBenchmark, WorkloadStream};

/// A one-block program and a trace of `n` repetitions of a 16-entry
/// block with a mix of ALU work, loads, and a terminating branch.
fn looped_trace(n: usize) -> (mlpa_isa::Program, Vec<(BlockId, Vec<Instruction>)>) {
    let mut b = ProgramBuilder::new("edge");
    let id = b.add_block(16);
    let prog = b.finish();
    let mut insts: Vec<Instruction> = (0..15)
        .map(|i| {
            if i % 4 == 3 {
                Instruction::load(Reg::int(8), Reg::int(8), 0x1000_0000 + (i as u64) * 8)
            } else {
                Instruction::alu(
                    OpClass::IntAlu,
                    Reg::int(8 + (i % 8) as u8),
                    [Reg::int(1), Reg::int(2)],
                )
            }
        })
        .collect();
    insts.push(Instruction::branch(BranchKind::Conditional, Reg::int(1), true, id));
    (prog, vec![(id, insts); n])
}

fn cache_spec() -> BenchmarkSpec {
    BenchmarkSpec {
        phases: vec![PhaseSpec {
            blocks: vec![BlockSpec {
                mix: InstMix { load: 0.35, store: 0.1, ..InstMix::default() },
                mem: MemoryPattern::RandomInSet { working_set: 48 * 1024 },
                ..BlockSpec::default()
            }],
            ..PhaseSpec::default()
        }],
        script: vec![ScriptEntry::new(0, 200_000)],
        ..BenchmarkSpec::default()
    }
}

#[test]
fn limit_mid_block_stops_at_the_next_block_boundary() {
    let (prog, trace) = looped_trace(1_000);
    let mut sim = DetailedSim::new(MachineConfig::table1_base(), &prog);
    // 16-instruction blocks: a limit of 100 lands mid-block and must
    // round up to the enclosing boundary, never truncate a block.
    let m = sim.simulate(&mut SliceStream::new(&trace), 100);
    assert_eq!(m.instructions, 112, "ceil(100/16) * 16 committed");
    // The stream itself must resume at the next whole block.
    let mut stream = SliceStream::new(&trace);
    let _ = sim.simulate(&mut stream, 100);
    let m2 = sim.simulate(&mut stream, u64::MAX);
    assert_eq!(m2.instructions, 16_000 - 112, "remainder of the trace");
}

#[test]
fn zero_instruction_regions_report_zero_cycles() {
    let (prog, trace) = looped_trace(10);
    let mut sim = DetailedSim::new(MachineConfig::table1_base(), &prog);
    // limit 0: no block is pulled, everything stays zero.
    let m = sim.simulate(&mut SliceStream::new(&trace), 0);
    assert_eq!(m, SimMetrics::default());
    assert_eq!(m.cpi(), 0.0);
    // Exhausted stream: the region is empty even with a huge limit.
    let mut stream = SliceStream::new(&trace);
    let _ = sim.simulate(&mut stream, u64::MAX);
    let tail = sim.simulate(&mut stream, u64::MAX);
    assert_eq!(tail, SimMetrics::default(), "drained stream yields an empty region");
    // A minimal non-empty region reports at least one cycle.
    let m1 = sim.simulate(&mut SliceStream::new(&trace), 1);
    assert_eq!(m1.instructions, 16);
    assert!(m1.cycles >= 1, "non-empty region pays the cycle floor");
}

#[test]
fn chained_regions_telescope_to_one_long_call() {
    // Microarchitectural state persists across `simulate` calls while
    // statistics reset, so N chained regions must sum to exactly one
    // long call over the same trace: instructions, cycles, cache and
    // branch counters all telescope.
    let cb = CompiledBenchmark::compile(&cache_spec()).unwrap();
    let cfg = MachineConfig::table1_base();

    let mut chained = DetailedSim::new(cfg, cb.program());
    let mut stream = WorkloadStream::new(&cb);
    let mut sum = SimMetrics::default();
    let mut regions = 0;
    loop {
        let m = chained.simulate(&mut stream, 25_000);
        if m.instructions == 0 {
            break;
        }
        sum += m;
        regions += 1;
    }
    assert!(regions >= 5, "the workload should span several regions, got {regions}");

    let mut single = DetailedSim::new(cfg, cb.program());
    let whole = single.simulate(&mut WorkloadStream::new(&cb), u64::MAX);
    assert_eq!(sum, whole, "chained regions must telescope exactly");
}

#[test]
fn warm_state_carries_contents_but_not_timing_or_stats() {
    let cb = CompiledBenchmark::compile(&cache_spec()).unwrap();
    let cfg = MachineConfig::table1_base();

    // Run a prefix to build up warm cache/predictor contents.
    let mut warmer = DetailedSim::new(cfg, cb.program());
    let mut warm_stream = WorkloadStream::new(&cb);
    let prefix = warmer.simulate(&mut warm_stream, 100_000);
    assert!(prefix.instructions >= 100_000);
    let warm_hier = warmer.hierarchy().clone();
    let warm_branch = warmer.branch_unit().clone();

    // Continue the warmer over the measurement region, and run a
    // warm-installed sibling over the same region. Cache and branch
    // counters depend only on the access stream and the warm contents,
    // so they must agree exactly; timing state was not carried, so the
    // sibling starts its cycle accounting cold.
    let mut installed = DetailedSim::with_warm_state(cfg, cb.program(), warm_hier, warm_branch);
    let mut installed_stream = WorkloadStream::new(&cb);
    let skip = installed.simulate(&mut installed_stream, 0); // no-op: stream positioning below
    assert_eq!(skip, SimMetrics::default());
    // Position the sibling's stream at the same prefix boundary by
    // draining the same number of instructions functionally.
    let mut drained = 0u64;
    let mut buf = Vec::new();
    while drained < prefix.instructions {
        use mlpa_isa::stream::InstructionStream;
        let Some(_) = installed_stream.next_block(&mut buf) else { break };
        drained += buf.len() as u64;
    }
    assert_eq!(drained, prefix.instructions, "streams positioned identically");

    let cont = warmer.simulate(&mut warm_stream, 50_000);
    let warm = installed.simulate(&mut installed_stream, 50_000);
    assert_eq!(warm.instructions, cont.instructions);
    assert_eq!(
        (warm.l1d_hits, warm.l1d_misses, warm.l2_hits, warm.l2_misses),
        (cont.l1d_hits, cont.l1d_misses, cont.l2_hits, cont.l2_misses),
        "warm contents must carry over exactly"
    );
    assert_eq!((warm.branches, warm.mispredicts), (cont.branches, cont.mispredicts));
    assert!(warm.cycles > 0, "timing restarts cold but still accumulates");

    // And the warm start must beat a stone-cold sibling on the same
    // region: that is the point of functional warming.
    let mut cold = DetailedSim::new(cfg, cb.program());
    let mut cold_stream = WorkloadStream::new(&cb);
    let mut drained = 0u64;
    while drained < prefix.instructions {
        use mlpa_isa::stream::InstructionStream;
        let Some(_) = cold_stream.next_block(&mut buf) else { break };
        drained += buf.len() as u64;
    }
    let cold_m = cold.simulate(&mut cold_stream, 50_000);
    assert!(
        warm.l1_hit_rate() > cold_m.l1_hit_rate(),
        "warm install {:.3} should beat cold start {:.3}",
        warm.l1_hit_rate(),
        cold_m.l1_hit_rate()
    );
}
