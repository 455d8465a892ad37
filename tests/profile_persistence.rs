//! Integration test: profiles round-trip through the binary format and
//! remain fully usable artifacts.

use ssim::prelude::*;

#[test]
fn saved_profile_drives_identical_design_exploration() {
    let machine = MachineConfig::baseline();
    let program = ssim::workloads::by_name("vpr").unwrap().program();
    let p = profile(
        &program,
        &ProfileConfig::new(&machine)
            .skip(1_000_000)
            .instructions(300_000),
    );

    let mut bytes = Vec::new();
    p.save(&mut bytes).expect("in-memory save succeeds");
    assert!(bytes.len() > 1_000, "profile should have substance");
    let restored = StatisticalProfile::load(&mut bytes.as_slice()).expect("load succeeds");

    // The restored profile must drive *identical* downstream results for
    // any machine configuration.
    for cfg in [
        machine.clone(),
        machine.clone().with_window(32),
        machine.clone().with_width(2),
    ] {
        let (ta, tb) = (p.generate(12, 5), restored.generate(12, 5));
        assert_eq!(ta, tb);
        let (ra, rb) = (simulate_trace(&ta, &cfg), simulate_trace(&tb, &cfg));
        assert_eq!(ra.cycles, rb.cycles);
        assert_eq!(ra.instructions, rb.instructions);
    }
}

#[test]
fn anti_dep_profiles_round_trip() {
    let machine = MachineConfig::baseline().in_order();
    let program = ssim::workloads::by_name("gcc").unwrap().program();
    let p = profile(
        &program,
        &ProfileConfig::new(&machine)
            .anti_deps(true)
            .skip(1_000_000)
            .instructions(150_000),
    );
    let mut bytes = Vec::new();
    p.save(&mut bytes).unwrap();
    let restored = StatisticalProfile::load(&mut bytes.as_slice()).unwrap();
    let (ta, tb) = (p.generate(10, 2), restored.generate(10, 2));
    assert_eq!(ta, tb);
    assert!(ta.instrs().any(|i| i.anti_dep.iter().any(|d| d.is_some())));
}

#[test]
fn profiles_survive_the_filesystem() {
    let machine = MachineConfig::baseline();
    let program = ssim::workloads::by_name("crafty").unwrap().program();
    let p = profile(
        &program,
        &ProfileConfig::new(&machine)
            .skip(500_000)
            .instructions(100_000),
    );
    let dir = std::env::temp_dir().join("ssim-profile-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("crafty.ssimprf");
    {
        let mut f = std::fs::File::create(&path).unwrap();
        p.save(&mut f).unwrap();
    }
    let mut f = std::fs::File::open(&path).unwrap();
    let restored = StatisticalProfile::load(&mut f).unwrap();
    assert_eq!(restored.context_count(), p.context_count());
    std::fs::remove_file(&path).ok();
}
