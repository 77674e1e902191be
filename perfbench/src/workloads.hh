/**
 * @file
 * The four benchmark workloads. Each runs its set-up opt.setups times,
 * measures for opt.seconds (one pass in smoke mode), checks every
 * output against its reference, and returns what it measured.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "report.hh"

namespace perfbench
{

/** Figure 4: six apps plus their sequential references across the
 *  seven-point pointer axis, 64 nodes, victim caching, Runner::runAll. */
Outcome runFig4Direct(const Options &opt);

/** Many ~1 ms cells: the directory spectrum under jitter and faults
 *  and the snooping grid, every cell audited. */
Outcome runStressAudit(const Options &opt);

/** Protocol sweep over the trace-portable apps through
 *  Runner::runAllReplay with a fresh trace directory per pass. */
Outcome runReplayPortable(const Options &opt);

/** Closed-loop clients against an in-process --serve server with a
 *  pre-warmed result cache. */
Outcome runServeMixed(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
