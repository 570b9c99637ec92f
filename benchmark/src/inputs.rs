//! Seeded input generation. The program under test receives only what
//! is built here: benchmark specs and serve requests.
//!
//! A seed selects one of [`VARIANTS`] input variants, and every input is
//! a function of the variant alone, so `golden.txt` can hold the
//! expected output of every variant. Variants keep each workload's
//! programs and vary their trace instance (the spec's master seed), so
//! the work per round, and with it the timing, stays comparable across
//! seeds.

use mlpa_workloads::suite::SPEC2000_NAMES;
use mlpa_workloads::BenchmarkSpec;

/// Number of distinct input variants a seed can select.
pub const VARIANTS: u64 = 16;

/// The variant `seed` selects; seed 1 selects variant 0, the suite's own
/// traces.
pub fn variant(seed: u64) -> u64 {
    seed.wrapping_sub(1) % VARIANTS
}

/// SplitMix64, kept here rather than borrowed from the program so the
/// inputs cannot change when the program does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// `spec` with the trace instance of `variant`: the same phases and
/// script, another code layout and dynamic stream. Variant 0 keeps the
/// suite's own seed.
pub fn vary(mut spec: BenchmarkSpec, variant: u64) -> BenchmarkSpec {
    if variant != 0 {
        spec.seed = SplitMix64::new(spec.seed ^ variant).next_u64();
    }
    spec
}

/// Clients driving the serve workload.
const CLIENTS: usize = 2;

/// One generated `POST /analyze` request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    pub benchmark: &'static str,
    /// Scale in thousandths, so it renders exactly.
    pub scale_milli: u32,
    pub method: &'static str,
    pub config: &'static str,
}

impl ServeRequest {
    pub fn body(&self) -> String {
        format!(
            "{{\"benchmark\":\"{}\",\"method\":\"{}\",\"config\":\"{}\",\"iters\":1,\"scale\":{}}}",
            self.benchmark,
            self.method,
            self.config,
            f64::from(self.scale_milli) / 1000.0
        )
    }
}

/// Each client's cold requests for `variant`: every suite program once,
/// at scales in 0.050–0.152 that no other client uses (so clients never
/// share pipeline artifacts), with methods and configs in balanced,
/// shuffled proportions.
pub fn serve_requests(variant: u64) -> Vec<Vec<ServeRequest>> {
    let mut rng = SplitMix64::new(0x5E12_7E00 ^ variant);
    let n = SPEC2000_NAMES.len();
    (0..CLIENTS)
        .map(|c| {
            let mut programs = SPEC2000_NAMES.to_vec();
            let mut scales: Vec<u32> =
                (0..n).map(|i| 50 + (2 * (CLIENTS * i + c)) as u32).collect();
            let mut methods: Vec<&str> =
                (0..n).map(|i| ["simpoint", "coasts", "multilevel"][i % 3]).collect();
            let mut configs: Vec<&str> = (0..n).map(|i| ["base", "sensitivity"][i % 2]).collect();
            rng.shuffle(&mut programs);
            rng.shuffle(&mut scales);
            rng.shuffle(&mut methods);
            rng.shuffle(&mut configs);
            (0..n)
                .map(|i| ServeRequest {
                    benchmark: programs[i],
                    scale_milli: scales[i],
                    method: methods[i],
                    config: configs[i],
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn seed_one_selects_the_suite_traces() {
        assert_eq!(variant(1), 0);
        assert_eq!(variant(VARIANTS + 1), 0);
        assert_eq!(variant(0), VARIANTS - 1);
        let spec = mlpa_workloads::suite::benchmark("eon").expect("eon");
        assert_eq!(vary(spec.clone(), 0), spec);
        let other = vary(spec.clone(), 3);
        assert_ne!(other.seed, spec.seed);
        assert_eq!(other.script, spec.script);
    }

    #[test]
    fn generation_is_deterministic() {
        for v in 0..VARIANTS {
            assert_eq!(serve_requests(v), serve_requests(v));
        }
        assert_ne!(serve_requests(0), serve_requests(1));
        let eon = mlpa_workloads::suite::benchmark("eon").expect("eon");
        assert_eq!(vary(eon.clone(), 5), vary(eon, 5));
    }

    #[test]
    fn clients_never_share_a_program_instance() {
        for v in 0..VARIANTS {
            let clients = serve_requests(v);
            let sets: Vec<BTreeSet<(&str, u32)>> = clients
                .iter()
                .map(|reqs| reqs.iter().map(|r| (r.benchmark, r.scale_milli)).collect())
                .collect();
            for (c, reqs) in clients.iter().enumerate() {
                assert_eq!(sets[c].len(), reqs.len(), "variant {v}: client {c} repeats a key");
                assert!(reqs.iter().all(|r| (50..=152).contains(&r.scale_milli)));
            }
            assert!(sets[0].is_disjoint(&sets[1]), "variant {v}: clients share a key");
            let scales: Vec<BTreeSet<u32>> =
                clients.iter().map(|reqs| reqs.iter().map(|r| r.scale_milli).collect()).collect();
            assert!(scales[0].is_disjoint(&scales[1]), "variant {v}: clients share a scale");
        }
    }

    #[test]
    fn request_bodies_are_valid_analyze_requests() {
        for reqs in serve_requests(0) {
            for r in reqs {
                let parsed = mlpa_core::serve::AnalyzeRequest::from_json(&r.body())
                    .expect("generated request is valid");
                assert_eq!(parsed.scale, f64::from(r.scale_milli) / 1000.0);
                assert_eq!(parsed.iters, 1);
            }
        }
    }
}
