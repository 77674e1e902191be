/**
 * @file
 * Compiled support for the paper-reproduction benchmark harnesses:
 * fixed-width table formatting matching the paper's presentation,
 * host-resource probes, and the machine-readable bench trajectory.
 *
 * The machine/app driving that used to live here (runWorker, runApp)
 * is now the experiment layer: see src/exp/runner.hh. Benches are
 * spec tables over that runner; this file only formats and records.
 *
 * Trajectory format (schema "swex-bench-v1"):
 *
 *   {"schema":"swex-bench-v1","entries":[
 *    {"name":"BM_Foo","metrics":{"ns_per_op":123.4,...}},
 *    ...
 *   ]}
 *
 * Writers merge: an entry replaces the previous entry of the same
 * name and all other entries are preserved, so harnesses covering
 * different benches can share one file, and baseline entries (named
 * with a "[seed-<sha>]" suffix) survive reruns. The environment
 * variable SWEX_BENCH_JSON overrides the output path.
 */

#ifndef SWEX_BENCH_BENCH_SUPPORT_HH
#define SWEX_BENCH_BENCH_SUPPORT_HH

#include <string>
#include <utility>
#include <vector>

namespace swex::bench
{

/** Alewife's clock; used to convert cycles to seconds for Table 3. */
constexpr double clockHz = 33.0e6;

/** Print a separator line. */
void rule(int width = 72);

/** Peak resident set size of this process, in kilobytes. */
long peakRssKb();

/** A harness command line: `--jobs N` and row filters. */
struct HarnessArgs
{
    unsigned jobs = 1;
    std::vector<std::string> rows;   ///< empty = every row
};

/**
 * Parse @p argv for harness @p tool: `--jobs N` (a plain number, at
 * least 1) and, when @p row_names is non-empty, positional names of
 * rows to run. Anything else prints what is wrong and exits 2, so a
 * typo never prints an empty table that looks like a pass.
 */
HarnessArgs parseHarnessArgs(const char *tool, int argc, char **argv,
                             const std::vector<std::string> &row_names =
                                 {});

/** One named result: a flat bag of numeric metrics. */
struct BenchEntry
{
    std::string name;
    std::vector<std::pair<std::string, double>> metrics;
};

class JsonTrajectory
{
  public:
    void record(std::string name,
                std::vector<std::pair<std::string, double>> metrics);

    /**
     * Merge the recorded entries into @p path (or $SWEX_BENCH_JSON
     * when set): existing entries with other names are kept in
     * place, same-name entries are replaced, new names are appended.
     * @return true on success.
     */
    bool updateFile(const std::string &path) const;

    static std::string resolvePath(const std::string &fallback);

  private:
    static std::string entryLine(const BenchEntry &e);
    static std::vector<BenchEntry> readFile(const std::string &path);

    std::vector<BenchEntry> _entries;
};

} // namespace swex::bench

#endif // SWEX_BENCH_BENCH_SUPPORT_HH
