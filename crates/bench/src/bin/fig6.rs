//! Regenerates Figure 6 (a, b) of the paper. See `ccs_bench::figures`.

fn main() -> std::io::Result<()> {
    let args = ccs_bench::HarnessArgs::parse();
    ccs_bench::figures::Figure::Fig6.run_and_save(&args)?;
    Ok(())
}
