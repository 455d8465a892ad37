//! Integration tests for the in-order / anti-dependency extension
//! (the paper's §2.1.1 future-work note).

use ssim::prelude::*;

#[test]
fn in_order_machine_is_slower_than_out_of_order() {
    let ooo = MachineConfig::baseline();
    let ino = MachineConfig::baseline().in_order();
    let program = ssim::workloads::by_name("crafty").unwrap().program();
    let run = |cfg: &MachineConfig| {
        let mut sim = ExecSim::new(cfg, &program);
        sim.skip(1_000_000);
        sim.run(200_000)
    };
    let fast = run(&ooo);
    let slow = run(&ino);
    assert!(
        slow.ipc() < fast.ipc(),
        "in-order {} must trail out-of-order {}",
        slow.ipc(),
        fast.ipc()
    );
    assert!(slow.ipc() > 0.05, "in-order machine still makes progress");
}

#[test]
fn anti_dep_profiles_record_waw_war() {
    let machine = MachineConfig::baseline().in_order();
    let program = ssim::workloads::by_name("bzip2").unwrap().program();
    let p = profile(
        &program,
        &ProfileConfig::new(&machine)
            .anti_deps(true)
            .skip(2_500_000)
            .instructions(200_000),
    );
    let tracked: u64 = p
        .contexts()
        .flat_map(|(_, s)| s.slots.iter())
        .map(|s| s.waw.total() + s.war.total())
        .sum();
    assert!(
        tracked > 100_000,
        "anti-dependency distributions must fill, got {tracked}"
    );

    // And the generated trace carries them.
    let trace = p.generate(10, 1);
    let with_anti = trace
        .instrs()
        .filter(|i| i.anti_dep.iter().any(|d| d.is_some()))
        .count();
    assert!(
        with_anti * 2 > trace.len(),
        "most instructions rewrite recently-touched registers, got {with_anti}/{}",
        trace.len()
    );
}

#[test]
fn raw_only_profiles_leave_anti_deps_empty() {
    let machine = MachineConfig::baseline();
    let program = ssim::workloads::by_name("eon").unwrap().program();
    let p = profile(
        &program,
        &ProfileConfig::new(&machine)
            .skip(1_000_000)
            .instructions(100_000),
    );
    for (_, s) in p.contexts() {
        for slot in &s.slots {
            assert!(slot.waw.is_empty() && slot.war.is_empty());
        }
    }
    let trace = p.generate(10, 1);
    assert!(trace.instrs().all(|i| i.anti_dep == [None, None]));
}

#[test]
fn synthetic_in_order_simulation_tracks_eds() {
    let machine = MachineConfig::baseline().in_order();
    let program = ssim::workloads::by_name("twolf").unwrap().program();
    let mut sim = ExecSim::new(&machine, &program);
    sim.skip(4_000_000);
    let eds = sim.run(400_000);
    let p = profile(
        &program,
        &ProfileConfig::new(&machine)
            .anti_deps(true)
            .skip(4_000_000)
            .instructions(400_000),
    );
    let ss = simulate_trace(&p.generate(10, 1), &machine);
    let err = absolute_error(ss.ipc(), eds.ipc());
    assert!(
        err < 0.25,
        "in-order statistical simulation too far off: SS {} vs EDS {} ({:.1}%)",
        ss.ipc(),
        eds.ipc(),
        err * 100.0
    );
}
