//! Regenerates every table and figure of the paper in one run — the full
//! reproduction report recorded in `EXPERIMENTS.md`.
//!
//! Pass `--skip-measured` to omit the host-measured anchors (useful on
//! slow machines or in CI).

use spg_simcpu::Machine;

fn main() {
    let skip_measured = std::env::args().any(|a| a == "--skip-measured");
    let machine = Machine::xeon_e5_2650();

    print!("{}", spg_bench::figures::table1_report());
    println!();
    print!("{}", spg_bench::figures::table2_report());
    println!();
    print!("{}", spg_bench::figures::fig1_report());
    println!();
    print!("{}", spg_bench::figures::fig3a_report(&machine));
    println!();
    if !skip_measured {
        print!("{}", spg_bench::figures::fig3a_anchors());
        println!();
    }
    if skip_measured {
        print!("{}", spg_bench::figures::fig3b_report(None));
    } else {
        let measured = spg_workloads::sparsity::measured_curve(10, 0x3b);
        print!("{}", spg_bench::figures::fig3b_report(Some(&measured)));
    }
    println!();
    print!("{}", spg_bench::figures::fig4a_report(&machine));
    println!();
    print!("{}", spg_bench::figures::fig4b_report(&machine));
    println!();
    print!("{}", spg_bench::figures::fig4c_report(&machine));
    println!();
    print!("{}", spg_bench::figures::fig4d_report(&machine));
    println!();
    if !skip_measured {
        print!("{}", spg_bench::figures::fig4cd_anchors());
        println!();
    }
    print!("{}", spg_bench::figures::fig4e_report(&machine));
    println!();
    print!("{}", spg_bench::figures::fig4f_report(&machine));
    println!();
    if !skip_measured {
        print!("{}", spg_bench::figures::fig4ef_anchors());
        println!();
    }
    print!("{}", spg_bench::figures::fig8_report(&machine));
    println!();
    print!("{}", spg_bench::figures::fig9_report(&machine));
}
