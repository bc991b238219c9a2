//! Figure 9: a *static* TPC-C workload under changing machine conditions —
//! external CPU / memory / I/O pressure replaces the workload shifts of
//! Fig. 8 (the paper uses the `stress` Unix tool; we use the interference
//! model of `tmsim::Interference`, DESIGN.md §2).
//!
//! The point: environmental changes are indistinguishable from workload
//! changes to the Monitor, so ProteusTM re-tunes for them just the same
//! (e.g. dropping the thread count while a CPU hog runs).

use crate::fig8::{fold_phases, online_controller, phase_of, PHASE_TICKS};
use crate::harness::{f3, print_table};
use polytm::Kpi;
use rectm::Monitor;
use tmsim::{Interference, MachineModel, PerfModel, WorkloadFamily};

/// Run Figure 9.
pub fn run() {
    let machine = MachineModel::machine_a();
    let model = PerfModel::new(machine.clone());
    let space = machine.config_space();
    let configs = space.configs();
    let spec = WorkloadFamily::TpcC.base_spec();
    let ctl = online_controller(&machine, WorkloadFamily::TpcC, 0xF19);

    let windows: [(&str, Interference); 4] = [
        ("no interference", Interference::NONE),
        ("cpu hog", Interference::cpu_hog(0.8)),
        ("memory pressure", Interference::mem_pressure(0.7)),
        ("io pressure", Interference::io_pressure(0.9)),
    ];

    let record = ctl.run_online(
        &mut Monitor::with_defaults(),
        windows.len() * PHASE_TICKS,
        &mut |idx, t| {
            let w = phase_of(t, windows.len());
            model.noisy_kpi(
                7_000 + w as u64,
                &spec,
                &configs[idx],
                idx,
                Kpi::Throughput,
                t as u64,
            ) * windows[w]
                .1
                .throughput_factor(configs[idx].threads, machine.hw_threads)
        },
    );

    let rows: Vec<Vec<String>> = windows
        .iter()
        .zip(fold_phases(&record, configs, windows.len()))
        .map(|((name, itf), fold)| {
            // The window's optimum: interference changes it.
            let best = configs
                .iter()
                .map(|c| {
                    model.throughput(&spec, c)
                        * itf.throughput_factor(c.threads, machine.hw_threads)
                })
                .fold(0.0, f64::max);
            vec![
                name.to_string(),
                f3(best),
                f3(fold.mean),
                format!("{:.0}%", (1.0 - fold.mean / best) * 100.0),
                fold.settled.map_or("-".into(), |c| c.to_string()),
                fold.explorations.to_string(),
            ]
        })
        .collect();
    print_table(
        "Fig 9 — static TPC-C under external interference (Machine A)",
        &[
            "window",
            "optimal thr",
            "ProteusTM thr",
            "gap",
            "settled",
            "expl",
        ],
        &rows,
    );
    println!(
        "(Shape target: the Monitor flags each interference change; ProteusTM\n\
         re-tunes — e.g. fewer threads under the CPU hog — and stays close\n\
         to each window's optimum.)"
    );
}
