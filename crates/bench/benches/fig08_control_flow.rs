//! Figure 8: OPPROX uses decision trees to predict input-parameter-
//! dependent control-flow variations.
//!
//! Trains the control-flow classifier on the video pipeline's
//! representative inputs (whose `filter_order` parameter selects between
//! two filter chains) and evaluates its predictions on held-out inputs.

use opprox_approx_rt::{ApproxApp, InputParams};
use opprox_apps::VideoPipeline;
use opprox_bench::TextTable;
use opprox_core::control_flow::ControlFlowModel;
use opprox_core::sampling::{collect_training_data, SamplingPlan};

fn main() {
    let app = VideoPipeline::new();
    let plan = SamplingPlan {
        num_phases: 2,
        sparse_samples: 2,
        seed: 0xF08,
    };
    let data =
        collect_training_data(&app, &app.representative_inputs(), &plan).expect("training data");
    let model = ControlFlowModel::learn(&data).expect("control-flow model");

    println!("Figure 8 — decision-tree control-flow prediction (video pipeline)");
    println!("classes learned: {}\n", model.num_classes());

    let mut table = TextTable::new(vec![
        "input (fps, dur, bitrate, order)".into(),
        "predicted class".into(),
        "actual signature".into(),
        "correct".into(),
    ]);
    let mut correct = 0usize;
    let mut total = 0usize;
    for &(fps, dur, br, order) in &[
        (14.0, 5.0, 700.0, 0.0),
        (14.0, 5.0, 700.0, 1.0),
        (18.0, 3.0, 450.0, 0.0),
        (18.0, 3.0, 450.0, 1.0),
        (25.0, 4.0, 900.0, 0.0),
        (25.0, 4.0, 900.0, 1.0),
    ] {
        let input = InputParams::new(vec![fps, dur, br, order]);
        let predicted = model.predict(&input).expect("prediction");
        let golden = app.golden(&input).expect("golden run");
        let actual = model
            .class_of_signature(&golden.log.control_flow_signature())
            .expect("known signature");
        let ok = predicted == actual;
        correct += usize::from(ok);
        total += 1;
        table.add_row(vec![
            format!("({fps}, {dur}, {br}, {order})"),
            predicted.to_string(),
            format!("{:?} (class {actual})", golden.log.control_flow_signature()),
            if ok { "yes".into() } else { "NO".into() },
        ]);
    }
    println!("{}", table.render());
    println!(
        "Held-out control-flow prediction accuracy: {correct}/{total}.\n\
         Expected shape (paper): the tree keys on the input parameter that\n\
         selects the filter order and classifies unseen inputs correctly."
    );
}
