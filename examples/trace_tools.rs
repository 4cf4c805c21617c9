//! Record-once, analyze-many: record a workload's branch trace, save it in
//! the compact 2DPR format, reload it, and replay it through several
//! predictors and the 2D-profiler — the profile-server workflow a Pin-based
//! methodology would use for expensive target programs.

use std::io::Write as _;
use twodprof::bpred::{BranchPredictor, Gshare, GshareWithLoop, Perceptron, PredictorSim, Tage};
use twodprof::btrace::RecordedTrace;
use twodprof::core2d::{SliceConfig, Thresholds, TwoDProfiler};
use twodprof::workloads::{self, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "twolf".to_owned());
    let workload = workloads::by_name(&name, Scale::Small)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let input = workload.input_set("train").expect("train exists");

    // 1. record
    let mut trace = RecordedTrace::new(workload.sites().len());
    workload.run(&input, &mut trace);
    println!(
        "recorded {} events over {} static branches ({} KB in memory)",
        trace.events(),
        trace.num_sites(),
        trace.memory_bytes() / 1024
    );

    // 2. serialize + reload
    let path = std::env::temp_dir().join(format!("twodprof_{name}.2dpr"));
    let mut file = std::fs::File::create(&path)?;
    trace.write_to(&mut file)?;
    file.flush()?;
    let on_disk = std::fs::metadata(&path)?.len();
    println!(
        "saved to {} ({:.2} bytes/event)",
        path.display(),
        on_disk as f64 / trace.events() as f64
    );
    let mut file = std::fs::File::open(&path)?;
    let reloaded = RecordedTrace::read_from(&mut std::io::BufReader::new(&mut file))?;
    assert_eq!(reloaded, trace, "lossless round-trip");

    // 3. replay through a predictor zoo
    println!("\nreplaying through predictors:");
    let predictors: Vec<Box<dyn BranchPredictor>> = vec![
        Box::new(Gshare::new_4kb()),
        Box::new(GshareWithLoop::new_4kb()),
        Box::new(Perceptron::new_16kb()),
        Box::new(Tage::new_8kb()),
    ];
    for p in predictors {
        let label = p.name();
        let kb = p.storage_bits() as f64 / 8192.0;
        let mut sim = PredictorSim::new(reloaded.num_sites(), p);
        reloaded.replay_into(&mut sim);
        println!(
            "  {label:<16} {kb:>5.1} KB  misprediction {:.2}%",
            sim.profile().overall_misprediction_rate().unwrap_or(0.0) * 100.0
        );
    }

    // 4. and through the 2D-profiler
    let mut prof = TwoDProfiler::new(
        reloaded.num_sites(),
        Gshare::new_4kb(),
        SliceConfig::auto(reloaded.events()),
    );
    reloaded.replay_into(&mut prof);
    let report = prof.finish(Thresholds::paper());
    println!(
        "\n2D-profiling the replayed trace: {} of {} branches predicted input-dependent",
        report.predicted_dependent().count(),
        report.num_sites()
    );
    std::fs::remove_file(&path)?;
    Ok(())
}
