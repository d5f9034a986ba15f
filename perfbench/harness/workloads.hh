/**
 * @file
 * The benchmark's three workloads. Each one sets up, runs its timed
 * phase for Options::seconds, checks every output, and reports either
 * the end-to-end metrics (untraced) or the per-layer metrics (traced).
 */

#ifndef FA_PERFBENCH_WORKLOADS_HH
#define FA_PERFBENCH_WORKLOADS_HH

#include "bench.hh"

namespace perfbench {

/** sb_rmw x2, atomic_counter x8, dl_storermw x2 in all four modes on
 * icelake, one cell per job: host time goes to the core layer. */
void runLitmusModes(const Options &opt, Report &rep);

/** The fig14 campaign (26 apps x 4 modes at 32 cores) through
 * sweep::runSweep: the memory system and the worker pool. */
void runFig14Sweep(const Options &opt, Report &rep);

/** Recorded traces judged by checkTso and race::analyze, plus
 * mc::explore on sb_rmw in all four modes: the analysis layers. */
void runAnalysisJudges(const Options &opt, Report &rep);

} // namespace perfbench

#endif // FA_PERFBENCH_WORKLOADS_HH
