/**
 * @file
 * In-memory timing spans for the traced benchmark run. A Span times one
 * call into a simulator module from the benchmark's own code; spans nest
 * per thread (the enclosing span is the parent, so the spans of one cell
 * share its root span). Nothing is written until the run ends: each
 * thread appends to its own buffer, and collect() merges them.
 *
 * When tracing is off a Span costs one branch, so the untraced run that
 * produces the end-to-end numbers measures the same code paths.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

struct SpanRecord
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;    ///< 0 = a root span
    const char *name = "";       ///< string literal
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;

    double seconds() const { return 1e-9 * static_cast<double>(endNs - startNs); }
};

/** Turn span recording on or off for the whole process. */
void setTracing(bool on);
bool tracing();

/** Every span recorded so far, from every thread, ordered by id. */
std::vector<SpanRecord> collectSpans();

/** Write @p spans as one JSON object per line. @return false on I/O
 *  failure. */
bool writeSpans(const std::string &path,
                const std::vector<SpanRecord> &spans);

/** Times the enclosing scope when tracing is on. */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    bool _on;
    std::uint64_t _id = 0;
    std::uint64_t _parent = 0;
    const char *_name;
    std::int64_t _start = 0;
};

/** Per-name totals over a span list. */
struct SpanTotals
{
    std::vector<double> seconds;   ///< one entry per span
    double totalS = 0;
    double selfS = 0;   ///< duration minus the time its children cover
};

std::map<std::string, SpanTotals>
aggregateSpans(const std::vector<SpanRecord> &spans);

/** For every span named @p parent_name that has children: the share of
 *  its duration its direct children cover. */
std::vector<double> childCoverage(const std::vector<SpanRecord> &spans,
                                  const std::string &parent_name);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
