//! Output digests pinned from an unmodified tree.
//!
//! Workload seeds select simulation seeds from small pools, so every
//! input a run can see has its digest here. A change that moves any
//! simulated result — in either simulator, the sampler, or the power
//! model — fails the run instead of passing as a speed-up. Regenerate
//! with `perfbench --pin` only for a change that is meant to alter
//! results, and say so in that change.

use crate::{study, sweep};

/// `(program, simulation seed, digest of every §4.6 grid point)`.
const SWEEP: &[(&str, u64, u64)] = &[
    ("gcc", 1, 0x1f68dd04aaa17f38),
    ("gcc", 2, 0xfa4fa9fe9a5ebe58),
    ("gcc", 3, 0xae844f06bc68bd11),
    ("gcc", 4, 0x228ea90c5f6ddb28),
    ("gcc", 5, 0x1234ec0f7b2cccb0),
    ("gcc", 6, 0x3d0b7f417a6130c9),
    ("gcc", 7, 0xe47eb4af73be5944),
    ("gcc", 8, 0x7aa20f077f9127b7),
    ("bzip2", 1, 0x28b334c1a69b6e6e),
    ("bzip2", 2, 0x925ad1a2c9e3690a),
    ("bzip2", 3, 0xd12c004f0bd38bc7),
    ("bzip2", 4, 0x6fe114d16b45470d),
    ("bzip2", 5, 0x299909f0af5aea7d),
    ("bzip2", 6, 0x96c622f714d8c2de),
    ("bzip2", 7, 0x8aa8650bd08f0a85),
    ("bzip2", 8, 0xf27a993ab4aea7d8),
];

/// `(program, digest of EDS IPC and EPC)`.
const STUDY_EDS: &[(&str, u64)] = &[
    ("bzip2", 0x78a161215f8c180a),
    ("crafty", 0x592a5e6e291453f7),
    ("eon", 0x384c59addf65a1bf),
    ("gcc", 0xa07dbc4e319503ed),
    ("gzip", 0xc1f1b72359b81b7e),
    ("parser", 0x13bd66d43b10183d),
    ("perlbmk", 0xf04c43bcecfd1313),
    ("twolf", 0xbb86d73d24f0eb75),
    ("vortex", 0x69ba49f76ee4ad4b),
    ("vpr", 0xb8fb3930cc870c98),
    ("rle", 0x8825a2c26d93b269),
    ("bytecode", 0x07a449d93991526a),
    ("listwalk", 0x229658b859ea3baf),
];

/// `(program, simulation seed, digest of SS IPC and EPC)`.
const STUDY_SS: &[(&str, u64, u64)] = &[
    ("bzip2", 1, 0xef2ae920b591d1b3),
    ("bzip2", 2, 0x89d7ec4913276598),
    ("bzip2", 3, 0xdbec4ec1b73203d5),
    ("bzip2", 4, 0xc29cd0292cfdd5d6),
    ("bzip2", 5, 0xff13ec281370be96),
    ("bzip2", 6, 0xe441c024dc7f02ff),
    ("crafty", 1, 0x802f27a44919ebd9),
    ("crafty", 2, 0x0e1c310beb7fd0d6),
    ("crafty", 3, 0x7a7ee0e57cd7f7ea),
    ("crafty", 4, 0xbb206ae5adf5ee91),
    ("crafty", 5, 0x08d7a2d09ce5a72c),
    ("crafty", 6, 0x831a81d240742e73),
    ("eon", 1, 0x61ac237e6f548aa2),
    ("eon", 2, 0x2ad619ea9b9fdab0),
    ("eon", 3, 0x97da0448a611bddd),
    ("eon", 4, 0x97476639f9b9e992),
    ("eon", 5, 0xeee96b08f38b7d7d),
    ("eon", 6, 0x9e2538478421fc1f),
    ("gcc", 1, 0x8e97233c5ef67473),
    ("gcc", 2, 0x855b67404d0bb19f),
    ("gcc", 3, 0xb94b43a771807eb3),
    ("gcc", 4, 0x3b884f94c55bbd46),
    ("gcc", 5, 0x806990037a470d02),
    ("gcc", 6, 0xdcf4070de502fcfc),
    ("gzip", 1, 0xd3510e836dfe0b5d),
    ("gzip", 2, 0x6ff13f4e2524b9fa),
    ("gzip", 3, 0x35cc3bd2d0b9519f),
    ("gzip", 4, 0x9c5e97aee1ab844e),
    ("gzip", 5, 0x2622b4ae21a15c3a),
    ("gzip", 6, 0x0ca44b96037dd673),
    ("parser", 1, 0x9539abb95ec50a35),
    ("parser", 2, 0x9ad7f83312d64cdb),
    ("parser", 3, 0x34cd2aba6a7a6db0),
    ("parser", 4, 0x527a8644ddc1f789),
    ("parser", 5, 0xdb58bd75e82ee532),
    ("parser", 6, 0xec9a7d1268458a8a),
    ("perlbmk", 1, 0x4eb50b296b551b4b),
    ("perlbmk", 2, 0x7dae65122e23abe8),
    ("perlbmk", 3, 0x8380368c21945fb6),
    ("perlbmk", 4, 0x5ae19fa8a7c3df7c),
    ("perlbmk", 5, 0x67ebaaa4b46e84b4),
    ("perlbmk", 6, 0xbdcae02f34adf5b1),
    ("twolf", 1, 0x48d0edf9c6b9f07c),
    ("twolf", 2, 0x48d0edf9c6b9f07c),
    ("twolf", 3, 0x48d0edf9c6b9f07c),
    ("twolf", 4, 0x48d0edf9c6b9f07c),
    ("twolf", 5, 0x48d0edf9c6b9f07c),
    ("twolf", 6, 0x48d0edf9c6b9f07c),
    ("vortex", 1, 0xf19ca3c37250cf4c),
    ("vortex", 2, 0xf34dfdcbcd153140),
    ("vortex", 3, 0xa374fc4463768f4e),
    ("vortex", 4, 0x0f679cb36bdb0615),
    ("vortex", 5, 0xb50bf3f930950774),
    ("vortex", 6, 0x61c44b91cb07ab76),
    ("vpr", 1, 0x088b6501a65fe26c),
    ("vpr", 2, 0x1104ed2d02a9d1b9),
    ("vpr", 3, 0x07c3d5cdb2b56175),
    ("vpr", 4, 0x83d3e330ee7cd3ce),
    ("vpr", 5, 0xcdb0dcd8d653a7b8),
    ("vpr", 6, 0x78d67cee13884ed5),
    ("rle", 1, 0xec0a14a7695e5bbf),
    ("rle", 2, 0x097b0a1ae8515207),
    ("rle", 3, 0xff7f31ec38dde720),
    ("rle", 4, 0xbec9ccf2b43b24f2),
    ("rle", 5, 0x789e0da3ee49e8a4),
    ("rle", 6, 0xc163d2ba999ae148),
    ("bytecode", 1, 0x55d0a2ab5fdad957),
    ("bytecode", 2, 0x97fb59d86e24547e),
    ("bytecode", 3, 0xdce2fa0cdf2baec0),
    ("bytecode", 4, 0x85b3ae1b00ca2c42),
    ("bytecode", 5, 0xc60b61872ce96112),
    ("bytecode", 6, 0xee8cef8f39aca46b),
    ("listwalk", 1, 0x045027fa0dc82cd3),
    ("listwalk", 2, 0xf69881a9619c1054),
    ("listwalk", 3, 0xe610147d9ad6f624),
    ("listwalk", 4, 0x4d89e9d56336cfe5),
    ("listwalk", 5, 0x18373fd601787ae0),
    ("listwalk", 6, 0x19ae8bff922abefa),
];

pub fn sweep(name: &str, seed: u64) -> Option<u64> {
    SWEEP
        .iter()
        .find(|(n, s, _)| *n == name && *s == seed)
        .map(|e| e.2)
}

pub fn study_eds(name: &str) -> Option<u64> {
    STUDY_EDS.iter().find(|(n, _)| *n == name).map(|e| e.1)
}

pub fn study_ss(name: &str, seed: u64) -> Option<u64> {
    STUDY_SS
        .iter()
        .find(|(n, s, _)| *n == name && *s == seed)
        .map(|e| e.2)
}

/// Recomputes every pinned digest and prints the tables as Rust source.
pub fn print_tables() {
    sweep::prime_cache();
    let grid = ssim_bench::sec46_grid(true);
    let cfg = sweep::profile_config();
    println!("const SWEEP: &[(&str, u64, u64)] = &[");
    for name in sweep::PROGRAMS {
        let w = ssim::workloads::by_name(name).expect("suite workload");
        let sampler = ssim_bench::profile_cached(w, &cfg).compile(sweep::R);
        for seed in 1..=sweep::SEED_POOL {
            let results = ssim_par::par_map(&grid, |m| {
                ssim_bench::with_engine(|e| e.simulate_fused(&sampler, seed, m))
            });
            println!(
                "    (\"{name}\", {seed}, 0x{:016x}),",
                sweep::grid_digest(&results)
            );
        }
    }
    println!("];\n");
    let all: Vec<u64> = (1..=study::SEED_POOL).collect();
    let programs: Vec<_> = study::workloads()
        .into_iter()
        .map(|w| (w.name(), w.program()))
        .collect();
    let results = ssim_par::par_map(&programs, |(n, p)| study::pipeline(n, p, &all));
    println!("const STUDY_EDS: &[(&str, u64)] = &[");
    for r in &results {
        println!("    (\"{}\", 0x{:016x}),", r.name, r.eds.digest());
    }
    println!("];\n");
    println!("const STUDY_SS: &[(&str, u64, u64)] = &[");
    for r in &results {
        for (s, seed) in r.ss.iter().zip(&all) {
            println!("    (\"{}\", {seed}, 0x{:016x}),", r.name, s.digest());
        }
    }
    println!("];");
}
