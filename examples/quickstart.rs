//! Quickstart: the paper's Fig. 2 walk-through.
//!
//! Builds the two-function application of Fig. 2a (`func0` with the `linear`
//! loop, `func1` with the `outer`/`dot_product` nest), prints its wPST
//! (Fig. 2c), runs profiling + analysis, executes Algorithm 1, and reports
//! the Pareto-optimal accelerator solutions with their configurations.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cayman::ir::builder::ModuleBuilder;
use cayman::ir::Type;
use cayman::{Framework, SelectOptions, CVA6_TILE_AREA};

fn fig2_program() -> cayman::ir::Module {
    const N: i64 = 64;
    const M: i64 = 32;
    let mut mb = ModuleBuilder::new("fig2");
    let x = mb.array("x", Type::F64, &[N as usize]);
    let y = mb.array("y", Type::F64, &[N as usize]);
    let a = mb.array("A", Type::F64, &[N as usize, M as usize]);
    let b = mb.array("B", Type::F64, &[N as usize, M as usize]);
    let z = mb.array("z", Type::F64, &[N as usize]);

    // func0: linear: y[i] = k*x[i] + b
    let f0 = mb.function("func0", &[], None, |fb| {
        fb.counted_loop(0, N, 1, |fb, i| {
            let xv = fb.load_idx(x, &[i]);
            let t = fb.fmul(fb.fconst(2.0), xv);
            let v = fb.fadd(t, fb.fconst(1.0));
            fb.store_idx(y, &[i], v);
        });
        fb.ret(None);
    });

    // func1: outer / dot_product: z[i] += A[i][j] * B[i][j]
    let f1 = mb.function("func1", &[], None, |fb| {
        fb.counted_loop(0, N, 1, |fb, i| {
            fb.counted_loop(0, M, 1, |fb, j| {
                let av = fb.load_idx(a, &[i, j]);
                let bv = fb.load_idx(b, &[i, j]);
                let p = fb.fmul(av, bv);
                let zv = fb.load_idx(z, &[i]);
                let s = fb.fadd(zv, p);
                fb.store_idx(z, &[i], s);
            });
        });
        fb.ret(None);
    });

    mb.function("main", &[], None, |fb| {
        fb.call(f0, &[], None);
        fb.call(f1, &[], None);
        fb.ret(None);
    });
    mb.finish()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let module = fig2_program();
    println!("=== IR (excerpt) ===");
    for line in module.to_text().lines().take(18) {
        println!("{line}");
    }
    println!("...\n");

    let fw = Framework::from_module(module)?;
    println!("=== wPST (Fig. 2c) ===");
    print!("{}", fw.wpst_text());

    println!("\n=== profiling ===");
    println!(
        "total CPU cycles: {}  (T_all = {:.2} µs at 1.5 GHz)",
        fw.app.total_cycles(),
        fw.app.total_cycles() as f64 / 1.5e9 * 1e6
    );

    let selection = fw.select(&SelectOptions::default());
    println!(
        "\n=== Algorithm 1: {} Pareto-optimal solutions ({} vertices visited, {} configs considered) ===",
        selection.pareto.len(),
        selection.visited,
        selection.stats.configs_considered
    );
    for sol in &selection.pareto {
        let (sb, pr) = sol.sb_pr();
        let (c, d, s, lb) = sol.iface_counts();
        println!(
            "  area {:>7.0} ({:>5.1}% tile)  speedup {:>6.2}x  kernels {}  #SB {sb} #PR {pr}  #C {c} #D {d} #S {s} #LB {lb}",
            sol.area,
            100.0 * sol.area / CVA6_TILE_AREA,
            fw.speedup(sol),
            sol.kernels.len(),
        );
    }

    let report = fw.report(&selection, 0.25);
    println!("\n=== 25% budget pick ===");
    println!(
        "speedup {:.2}x, merging saves {:.0}% area across {} reusable accelerator(s)",
        report.speedup, report.area_saving_pct, report.reusable
    );
    Ok(())
}
