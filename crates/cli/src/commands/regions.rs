//! `cubemm regions`: the Figure 13/14-style best-algorithm map.

use cubemm_model::{render_ascii, RegionMap, Sweep};

use crate::args::{parse_costs, parse_port, Args, Flags};

const REGIONS_FLAGS: Flags = Flags {
    command: "regions",
    values: &[&["port", "ts", "tw"]],
    switches: &[],
};

/// `cubemm regions ...`.
pub fn regions(argv: &[String]) -> Result<i32, String> {
    let args = Args::parse(argv, &REGIONS_FLAGS)?;
    let cost = parse_costs(&args)?;
    let port = parse_port(args.raw("port"))?;
    let map = RegionMap::generate(Sweep::default(), port, cost.ts, cost.tw);
    print!("{}", render_ascii(&map));
    Ok(0)
}
