//! Every design of every candidate is pinned, not just every Pareto front.
//!
//! For each of the 132 workloads at `-O1`, every accelerable wPST region
//! with a non-empty profile becomes a candidate exactly as the selection DP
//! builds it, and all three accelerator models (Cayman's default model,
//! NOVIA and QsCores) generate its designs. Every field of every design is
//! folded into one fingerprint — floats by their bits, interfaces in order —
//! and the result must equal the digest recorded before the model was
//! rewritten bottom-up. A model change that moves any design by one ulp, in
//! any candidate, fails here even when no front changes.

use cayman::baselines::{NoviaModel, QsCoresModel};
use cayman::hls::design::{generate_designs, AcceleratorDesign};
use cayman::hls::inputs::Candidate;
use cayman::ir::Fingerprinter;
use cayman::select::AccelModel;
use cayman::{Framework, ModelOptions};

/// The digest of every design, recorded with the per-configuration model.
const DESIGN_DIGEST: u64 = 0x361e_4905_3d2a_e2e6;
/// How many designs the digest covers.
const DESIGN_COUNT: u64 = 10_800;

fn fold_design(h: &mut Fingerprinter, d: &AcceleratorDesign) {
    h.u64s(&[u64::from(d.func.0), d.blocks.len() as u64]);
    h.u64s(&d.blocks.iter().map(|b| u64::from(b.0)).collect::<Vec<_>>());
    h.u64s(&[u64::from(d.unroll), d.pipelined.len() as u64]);
    h.u64s(
        &d.pipelined
            .iter()
            .map(|l| u64::from(l.0))
            .collect::<Vec<_>>(),
    );
    h.u64(d.pipelined_detail.len() as u64);
    for (l, blocks, u) in &d.pipelined_detail {
        h.u64s(&[u64::from(l.0), blocks.len() as u64, u64::from(*u)]);
        h.u64s(&blocks.iter().map(|b| u64::from(b.0)).collect::<Vec<_>>());
    }
    h.u64(d.interfaces.len() as u64);
    for (i, s) in &d.interfaces {
        h.u64s(&[
            u64::from(i.0),
            s.kind as u64,
            u64::from(s.banks),
            u64::from(s.depth),
            u64::from(s.ports),
        ]);
    }
    h.u64s(&[
        d.seq_blocks as u64,
        d.accel_cycles_total.to_bits(),
        d.area.to_bits(),
        d.cpu_cycles,
        d.entries,
    ]);
}

#[test]
fn every_design_of_every_candidate_is_pinned() {
    let cayman = ModelOptions::default();
    let mut h = Fingerprinter::new();
    let mut count = 0u64;
    for w in cayman::workloads::full() {
        let fw = Framework::from_workload(&w).expect("analyses");
        let app = &fw.app;
        let inputs = app.inputs();
        h.u64(w.name.len() as u64);
        for v in app.wpst.ids() {
            let Some((region, func)) = app.wpst.region(v) else {
                continue;
            };
            let rp = app.profile.of(v);
            if !region.accelerable || rp.entries == 0 || rp.cycles == 0 {
                continue;
            }
            let cand = Candidate {
                func,
                blocks: region.blocks.clone(),
                entries: rp.entries,
                cpu_cycles: rp.cycles,
                is_bb: app.wpst.is_bb(v),
            };
            let inp = &inputs[func.index()];
            let models = [
                generate_designs(inp, &cand, &cayman),
                NoviaModel.designs(inp, &cand),
                QsCoresModel.designs(inp, &cand),
            ];
            for designs in &models {
                h.u64(designs.len() as u64);
                for d in designs {
                    fold_design(&mut h, d);
                    count += 1;
                }
            }
        }
    }
    let digest = h.finish();
    assert_eq!(
        (digest, count),
        (DESIGN_DIGEST, DESIGN_COUNT),
        "design digest {digest:#018x} over {count} designs"
    );
}
