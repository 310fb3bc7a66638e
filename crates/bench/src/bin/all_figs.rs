//! Regenerates every evaluation figure of the paper in sequence.

fn main() -> std::io::Result<()> {
    let args = ccs_bench::HarnessArgs::parse();
    for fig in ccs_bench::figures::Figure::ALL {
        fig.run_and_save(&args)?;
    }
    Ok(())
}
