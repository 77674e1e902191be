/**
 * @file
 * What one benchmark run measured, and how it is printed: the stamp,
 * the end-to-end table (tracing off) or the per-layer table (tracing
 * on), and the final one-line JSON result.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cells.hh"
#include "spans.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;          ///< one small pass of every gate
    std::string commit = "unknown";
    std::string runDir = ".bench_run";       ///< caches, traces, sockets
    std::string outDir = ".bench_results";   ///< result and span files
    unsigned jobs = 1;           ///< min(nproc, 4)
    unsigned setups = 3;         ///< set-ups per process; setup_s is the median
    unsigned processes = 1;      ///< processes the measurement is split over
};

/** SplitMix64 finalizer: the benchmark's seed derivation. */
std::uint64_t mix64(std::uint64_t x);

/** FNV-1a over @p bytes, continuing from @p h. */
std::uint64_t fnv1a(std::uint64_t h, const std::string &bytes);
constexpr std::uint64_t fnvOffset = 14695981039346656037ull;

/** Timing samples. */
class Series
{
  public:
    void add(double v) { _v.push_back(v); }
    std::size_t size() const { return _v.size(); }
    bool empty() const { return _v.empty(); }
    double median() const { return quantile(0.5); }
    double quantile(double q) const;
    double max() const;
    const std::vector<double> &values() const { return _v; }

    /** The highest of p99.9, p99, p90, p75 that has at least ten
     *  samples beyond it; @p label names it ("" when none does). */
    double tail(std::string &label) const;

  private:
    std::vector<double> _v;
};

/** Sums of the decomposed cells' simulated counters and host times. */
struct CellSums
{
    std::uint64_t cells = 0;
    double events = 0;
    double runSeconds = 0;
    double traps = 0;
    double handlerCycles = 0;
    double parallelNodeCycles = 0;   ///< sum of simCycles x nodes
    double messages = 0;
    double readHandlerSum = 0;
    double readHandlerCount = 0;
    double writeHandlerSum = 0;
    double writeHandlerCount = 0;
    double retransmits = 0;
    double dupsSuppressed = 0;
    double busTransactions = 0;
    double auditTransitions = 0;

    void add(const CellOutcome &c);
};

/** Per-layer metric values by name; names absent here print as 0 (the
 *  layer is idle on this workload). */
using LayerValues = std::map<std::string, double>;

/** Fill the span-derived per-layer metrics. */
void addSpanLayers(const std::vector<SpanRecord> &spans, unsigned jobs,
                   double traced_pass_wall_s, LayerValues &out);

/** Fill the per-cell simulated-counter metrics (means per cell). */
void addCellLayers(const CellSums &sums, LayerValues &out);

struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;   ///< first few diagnostics

    /** Count one failed op and keep its diagnostic. */
    void fail(const std::string &why);

    Series setupS;
    double wallS = 0;       ///< measured window
    double cells = 0;       ///< cells completed in the window
    double simCycles = 0;   ///< simulated cycles of cells simulated in it
    std::uint64_t runs = 0; ///< passes or requests measured
    std::string opName;     ///< what one p50_ms sample times
    Series opMs;
    std::vector<std::pair<std::string, Series>> classMs;   ///< serve
    double h5FullRatio = 0;    ///< fig4_direct only

    /** The end-to-end measurements as text, for merge() in another
     *  process. */
    std::string serialize() const;

    /** Add the end-to-end measurements serialize() wrote in another
     *  process: counts and totals add up, samples pool. */
    void merge(const std::string &text);

    // Traced runs only.
    LayerValues layers;
    Series tracedPassS;
    Series untracedPassS;
    double tracedWallS = 0;   ///< sum of traced pass walls
};

/** Print the stamp, the tables and the final JSON line; write the
 *  result file under opt.outDir. */
void printReport(const Options &opt, const Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
