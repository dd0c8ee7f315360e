//! `cubemm regions`: the Figure 13/14-style best-algorithm map.

use cubemm_model::{render_ascii, RegionMap, Sweep};

use crate::args::{parse_port, Args, Flags};

const REGIONS_FLAGS: Flags = Flags {
    command: "regions",
    values: &[&["port", "ts", "tw"]],
    switches: &[],
};

/// `cubemm regions ...`.
pub fn regions(argv: &[String]) -> Result<i32, String> {
    let args = Args::parse(argv, &REGIONS_FLAGS)?;
    let ts: f64 = args.get_or("ts", 150.0)?;
    let tw: f64 = args.get_or("tw", 3.0)?;
    let port = parse_port(args.raw("port"))?;
    let map = RegionMap::generate(Sweep::default(), port, ts, tw);
    print!("{}", render_ascii(&map));
    Ok(0)
}
