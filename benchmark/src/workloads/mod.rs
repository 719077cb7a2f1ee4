//! The six workloads. Each takes the run's [`Ctx`] and a [`Tracer`]
//! (disabled in the end-to-end run) and hands back an [`Outcome`].

pub mod cold;
mod probe;
pub mod serve;
pub mod stream;

use crate::run::{Ctx, Outcome};
use crate::trace::Tracer;

/// Runs the workload named in `ctx`.
pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    match ctx.workload.name {
        "cold_cpi_fb243k" => cold::run(cold::Cold::CpiFootball, ctx, tracer),
        "cold_psl_fb243k" => cold::run(cold::Cold::PslFootball, ctx, tracer),
        "cold_walksat_wd400k" => cold::run(cold::Cold::WalksatWikidata, ctx, tracer),
        "serve_read_wd200k" => serve::run_read(ctx, tracer),
        "serve_edit_wd100k" => serve::run_edit(ctx, tracer),
        "stream_slide_w20k" => stream::run(ctx, tracer),
        other => unreachable!("{other} is not in metrics::WORKLOADS"),
    }
}
