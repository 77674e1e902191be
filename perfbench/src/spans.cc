#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench
{

namespace
{

std::atomic<bool> tracingOn{false};
std::atomic<std::uint64_t> nextSpanId{1};

/** Every thread's span buffer; buffers live until the process ends so
 *  collectSpans() can read those of threads that have exited. */
std::mutex buffersMutex;
std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers;

thread_local std::vector<SpanRecord> *localBuffer = nullptr;
thread_local std::uint64_t currentSpan = 0;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

std::vector<SpanRecord> &
threadBuffer()
{
    if (localBuffer == nullptr) {
        std::lock_guard<std::mutex> hold(buffersMutex);
        buffers.push_back(std::make_unique<std::vector<SpanRecord>>());
        localBuffer = buffers.back().get();
    }
    return *localBuffer;
}

} // anonymous namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
setTracing(bool on)
{
    tracingOn.store(on);
}

bool
tracing()
{
    return tracingOn.load(std::memory_order_relaxed);
}

Span::Span(const char *name) : _on(tracing()), _name(name)
{
    if (!_on)
        return;
    _id = nextSpanId.fetch_add(1, std::memory_order_relaxed);
    _parent = currentSpan;
    currentSpan = _id;
    _start = nowNs();
}

Span::~Span()
{
    if (!_on)
        return;
    std::int64_t end = nowNs();
    currentSpan = _parent;
    threadBuffer().push_back({_id, _parent, _name, _start, end});
}

std::vector<SpanRecord>
collectSpans()
{
    std::vector<SpanRecord> all;
    {
        std::lock_guard<std::mutex> hold(buffersMutex);
        for (const auto &b : buffers)
            all.insert(all.end(), b->begin(), b->end());
    }
    std::sort(all.begin(), all.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.id < b.id;
              });
    return all;
}

bool
writeSpans(const std::string &path, const std::vector<SpanRecord> &spans)
{
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        return false;
    for (const SpanRecord &s : spans) {
        f << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.startNs
          << ",\"end_ns\":" << s.endNs << "}\n";
    }
    return static_cast<bool>(f);
}

namespace
{

/** Seconds covered by each span's direct children, by span id. */
std::unordered_map<std::uint64_t, double>
childTimes(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<std::uint64_t, double> out;
    for (const SpanRecord &s : spans)
        if (s.parent != 0)
            out[s.parent] += s.seconds();
    return out;
}

} // anonymous namespace

std::map<std::string, SpanTotals>
aggregateSpans(const std::vector<SpanRecord> &spans)
{
    const auto childTime = childTimes(spans);
    std::map<std::string, SpanTotals> out;
    for (const SpanRecord &s : spans) {
        SpanTotals &t = out[s.name];
        double d = s.seconds();
        t.seconds.push_back(d);
        t.totalS += d;
        auto it = childTime.find(s.id);
        t.selfS += d - (it == childTime.end() ? 0.0 : it->second);
    }
    return out;
}

std::vector<double>
childCoverage(const std::vector<SpanRecord> &spans,
              const std::string &parent_name)
{
    const auto childTime = childTimes(spans);
    std::vector<double> out;
    for (const SpanRecord &s : spans) {
        if (parent_name != s.name)
            continue;
        auto it = childTime.find(s.id);
        if (it != childTime.end() && s.seconds() > 0)
            out.push_back(it->second / s.seconds());
    }
    return out;
}

} // namespace perfbench
