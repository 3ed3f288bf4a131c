//! Workload inputs: chips generated from the benchmark seed.
//!
//! Every chip comes from one of the paper's Table-1 profiles (the
//! `ocr_gen::suite` specs) with its generator seed replaced. Chip `k`
//! of a profile under workload seed `s` uses
//! `profile_seed + (s * 1_000_003 + k) * GOLDEN`, so seed 0 chip 0 of
//! each profile is exactly the paper's suite chip.

use ocr_gen::random::generate;
use ocr_gen::spec::BenchmarkSpec;
use ocr_io::write_chip;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// One generated chip, as the program receives it: `.ocr` text.
pub struct Chip {
    /// `<profile>-<k>`.
    pub name: String,
    /// The `.ocr` chip text.
    pub text: String,
}

/// The three suite profiles (ami33, Xerox, ex3) as published.
pub fn suite_profiles() -> Vec<BenchmarkSpec> {
    vec![
        ocr_gen::suite::ami33_like().spec,
        ocr_gen::suite::xerox_like().spec,
        ocr_gen::suite::ex3_like().spec,
    ]
}

/// The ex3 profile with long-range Level B nets: pins drawn from 50%
/// of the free slots instead of 15%. On these chips the Lee fallback
/// expands more nodes than MBFS and rip-up fires, while every flow
/// still completes.
pub fn congested_profiles() -> Vec<BenchmarkSpec> {
    let mut ex3 = ocr_gen::suite::ex3_like().spec;
    ex3.name = "ex3-congested".to_string();
    ex3.locality = 0.5;
    vec![ex3]
}

/// Chips per suite profile for a run of `seconds`: one per second, at
/// most 40. The route, channel and serve workloads share this set.
pub fn suite_per_profile(seconds: u64) -> usize {
    seconds.clamp(1, 40) as usize
}

/// Chips of the congested profile for a run of `seconds`: 5 per 3
/// seconds, at most 50, so a run makes about three passes. Their op
/// times are heavy-tailed (a chip that rips up can take 4x the median),
/// so the latency quantiles need this many chips to repeat across seeds.
pub fn congested_per_profile(seconds: u64) -> usize {
    (seconds * 5).div_ceil(3).clamp(1, 50) as usize
}

/// The generator seed of chip `k` of `profile` under workload `seed`.
pub fn chip_seed(profile: &BenchmarkSpec, seed: u64, k: usize) -> u64 {
    let index = seed.wrapping_mul(1_000_003).wrapping_add(k as u64);
    profile.seed.wrapping_add(index.wrapping_mul(GOLDEN))
}

/// `per_profile` chips of every profile, interleaved profile by
/// profile (`a-0, b-0, c-0, a-1, ...`) so any prefix mixes sizes.
/// Generated on the `ocr-exec` pool; the order does not depend on it.
pub fn generate_chips(profiles: &[BenchmarkSpec], seed: u64, per_profile: usize) -> Vec<Chip> {
    let specs: Vec<(String, BenchmarkSpec)> = (0..per_profile)
        .flat_map(|k| {
            profiles.iter().map(move |profile| {
                let mut spec = profile.clone();
                spec.seed = chip_seed(profile, seed, k);
                (format!("{}-{k}", profile.name), spec)
            })
        })
        .collect();
    ocr_exec::parallel_map(&specs, |(name, spec)| {
        let chip = generate(spec);
        Chip {
            name: name.clone(),
            text: write_chip(&chip.layout, &chip.placement),
        }
    })
}

/// One line per profile: the spec the workload's chips are drawn from.
pub fn describe(profiles: &[BenchmarkSpec]) -> Vec<String> {
    profiles
        .iter()
        .map(|p| {
            format!(
                "{}: cells {} rows {} level-A nets {} (avg pins {}) level-B nets {} \
                 (avg pins {}) obstacles {} locality {} base seed {:#x}",
                p.name,
                p.cells,
                p.rows,
                p.nets_level_a,
                p.avg_pins_level_a,
                p.nets_level_b,
                p.avg_pins_level_b,
                p.obstacles,
                p.locality,
                p.seed
            )
        })
        .collect()
}
