#include "report.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench
{

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
fnv1a(std::uint64_t h, const std::string &bytes)
{
    for (char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

double
Series::quantile(double q) const
{
    if (_v.empty())
        return 0;
    std::vector<double> s = _v;
    std::sort(s.begin(), s.end());
    double pos = q * static_cast<double>(s.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

double
Series::max() const
{
    return _v.empty() ? 0 : *std::max_element(_v.begin(), _v.end());
}

double
Series::tail(std::string &label) const
{
    static const std::pair<double, const char *> levels[] = {
        {0.999, "p99.9"}, {0.99, "p99"}, {0.90, "p90"}, {0.75, "p75"}};
    for (const auto &[q, name] : levels) {
        if ((1.0 - q) * static_cast<double>(_v.size()) >= 10.0) {
            label = name;
            return quantile(q);
        }
    }
    label.clear();
    return 0;
}

void
CellSums::add(const CellOutcome &c)
{
    ++cells;
    events += c.events;
    runSeconds += c.runSeconds;
    traps += c.traps;
    handlerCycles += c.handlerCycles;
    if (!c.sequential)
        parallelNodeCycles +=
            static_cast<double>(c.simCycles) * c.nodes;
    messages += c.messages;
    readHandlerSum += c.readHandlerSum;
    readHandlerCount += static_cast<double>(c.readHandlerCount);
    writeHandlerSum += c.writeHandlerSum;
    writeHandlerCount += static_cast<double>(c.writeHandlerCount);
    retransmits += c.retransmits;
    dupsSuppressed += c.dupsSuppressed;
    busTransactions += c.busTransactions;
    auditTransitions += static_cast<double>(c.auditTransitions);
}

void
Outcome::fail(const std::string &why)
{
    ++failed;
    if (failures.size() < 20)
        failures.push_back(why);
}

std::string
Outcome::serialize() const
{
    std::ostringstream os;
    os.precision(17);
    os << "attempted " << attempted << "\nfailed " << failed << "\nwall "
       << wallS << "\ncells " << cells << "\nsim " << simCycles
       << "\nruns " << runs << "\nh5 "
       << h5FullRatio << "\nop_name " << opName << "\n";
    auto series = [&os](const std::string &key, const Series &s) {
        os << key;
        for (double v : s.values())
            os << ' ' << v;
        os << '\n';
    };
    series("setup", setupS);
    series("op", opMs);
    for (const auto &[name, s] : classMs)
        series("class " + name, s);
    for (std::string f : failures) {
        std::replace(f.begin(), f.end(), '\n', ' ');
        os << "failure " << f << '\n';
    }
    return os.str();
}

void
Outcome::merge(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        std::string rest;
        std::getline(ls >> std::ws, rest);
        std::istringstream vs(rest);
        auto pool = [&vs](Series &s) {
            for (double v; vs >> v;)
                s.add(v);
        };
        auto add = [&vs](auto &total) {
            std::remove_reference_t<decltype(total)> v{};
            vs >> v;
            total += v;
        };
        if (key == "attempted")
            add(attempted);
        else if (key == "failed")
            add(failed);
        else if (key == "wall")
            add(wallS);
        else if (key == "cells")
            add(cells);
        else if (key == "sim")
            add(simCycles);
        else if (key == "runs")
            add(runs);
        else if (key == "h5")
            vs >> h5FullRatio;   // the same simulated grid in every part
        else if (key == "op_name")
            opName = rest;
        else if (key == "setup")
            pool(setupS);
        else if (key == "op")
            pool(opMs);
        else if (key == "failure" && failures.size() < 20)
            failures.push_back(rest);
        else if (key == "class") {
            std::string name;
            vs >> name;
            auto it = std::find_if(classMs.begin(), classMs.end(),
                                   [&](const auto &c) {
                                       return c.first == name;
                                   });
            if (it == classMs.end())
                it = classMs.insert(classMs.end(), {name, Series{}});
            pool(it->second);
        }
    }
}

namespace
{

/** The per-layer metrics every traced run prints, with the end-to-end
 *  metric each should move and the workload where its layer is busy. */
struct LayerInfo
{
    const char *name;
    const char *unit;
    const char *moves;
    const char *workload;
};

const LayerInfo layerCatalog[] = {
    {"apps.build_ms", "ms", "cells_per_s", "stress_audit"},
    {"apps.setup_ms", "ms", "cells_per_s", "stress_audit"},
    {"apps.verify_ms", "ms", "cells_per_s", "stress_audit"},
    {"machine.construct_ms", "ms", "cells_per_s", "stress_audit"},
    {"machine.check_ms", "ms", "cells_per_s", "stress_audit"},
    {"machine.stats_ms", "ms", "cells_per_s, miss_p50_ms",
     "stress_audit, serve_mixed"},
    {"machine.destroy_ms", "ms", "cells_per_s", "stress_audit"},
    {"machine.run_s", "s", "sim_cycles_per_s",
     "fig4_direct, replay_portable"},
    {"sim.events", "count", "sim_cycles_per_s",
     "fig4_direct, replay_portable"},
    {"sim.ns_per_event", "ns", "sim_cycles_per_s",
     "fig4_direct, replay_portable"},
    {"core.traps", "count", "h5_full_ratio; host: machine.run_s",
     "fig4_direct"},
    {"core.handler_cycles_share", "ratio",
     "h5_full_ratio; host: machine.run_s", "fig4_direct"},
    {"core.read_handler_mean_cycles", "cycles",
     "h5_full_ratio; host: machine.run_s", "fig4_direct"},
    {"core.write_handler_mean_cycles", "cycles",
     "h5_full_ratio; host: machine.run_s", "fig4_direct"},
    {"core.h5_full_ratio", "ratio", "simulated design (Figure 4)",
     "fig4_direct"},
    {"net.messages", "count", "sim.ns_per_event", "all sim workloads"},
    {"net.retransmits", "count", "cells_per_s", "stress_audit"},
    {"net.dups_suppressed", "count", "cells_per_s", "stress_audit"},
    {"audit.transitions", "count", "cells_per_s", "stress_audit"},
    {"audit.overhead_share", "ratio", "cells_per_s", "stress_audit"},
    {"machine.bus_transactions", "count", "cells_per_s", "stress_audit"},
    {"trace.record_s", "s", "cells_per_s", "replay_portable"},
    {"trace.save_ms", "ms", "cells_per_s", "replay_portable"},
    {"trace.load_ms", "ms", "cells_per_s", "replay_portable"},
    {"trace.bytes", "bytes", "cells_per_s", "replay_portable"},
    {"trace.replay_run_s", "s", "cells_per_s", "replay_portable"},
    {"exp.runner.execute_ms", "ms", "cells_per_s", "fig4_direct"},
    {"exp.runner.execute_max_ms", "ms", "cells_per_s", "fig4_direct"},
    {"exp.pool.busy_share", "ratio", "cells_per_s", "fig4_direct"},
    {"exp.record.write_us", "us", "hit_p50_ms", "serve_mixed"},
    {"exp.record.bytes", "bytes", "hit_p50_ms", "serve_mixed"},
    {"exp.cache.lookup_us", "us", "hit_p50_ms", "serve_mixed"},
    {"exp.cache.hit_ratio", "ratio", "hit_p50_ms", "serve_mixed"},
    {"exp.cache.lookups", "count", "hit_p50_ms", "serve_mixed"},
    {"exp.cache.entry_bytes", "bytes", "hit_p50_ms",
     "serve_mixed"},
    {"exp.cache.store_ms", "ms", "miss_p50_ms", "serve_mixed"},
    {"exp.wire.parse_us", "us", "hit_p50_ms, hit_p99_ms", "serve_mixed"},
    {"exp.serve.requests", "count", "error_rate, hit_p99_ms",
     "serve_mixed"},
    {"exp.serve.shed", "count", "error_rate, hit_p99_ms", "serve_mixed"},
    {"exp.client.reconnects", "count", "error_rate, hit_p99_ms",
     "serve_mixed"},
    {"bench.trace_overhead_share", "ratio", "tracing cost", "all"},
    {"bench.span_coverage", "ratio", "trace faithfulness", "all"},
};

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Peak resident memory of this process or of the largest child that
 *  measured for it. */
double
peakRssMb()
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
           1024.0;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

struct E2E
{
    std::string name;
    std::string unit;
    double value;
    std::string note;
};

} // anonymous namespace

void
addSpanLayers(const std::vector<SpanRecord> &spans, unsigned jobs,
              double traced_pass_wall_s, LayerValues &out)
{
    std::map<std::string, SpanTotals> agg = aggregateSpans(spans);
    auto mean = [&](const char *name, double scale) {
        auto it = agg.find(name);
        if (it == agg.end() || it->second.seconds.empty())
            return 0.0;
        return scale * it->second.totalS /
               static_cast<double>(it->second.seconds.size());
    };
    out["apps.build_ms"] = mean("apps.build", 1e3);
    out["apps.setup_ms"] = mean("apps.setup", 1e3);
    out["apps.verify_ms"] = mean("apps.verify", 1e3);
    out["machine.construct_ms"] = mean("machine.construct", 1e3);
    out["machine.check_ms"] = mean("machine.check", 1e3);
    out["machine.stats_ms"] = mean("machine.stats", 1e3);
    out["machine.destroy_ms"] = mean("machine.destroy", 1e3);
    out["trace.record_s"] = mean("trace.record", 1);
    out["trace.save_ms"] = mean("trace.save", 1e3);
    out["trace.load_ms"] = mean("trace.load", 1e3);
    out["trace.replay_run_s"] = mean("trace.replay_run", 1);
    out["exp.record.write_us"] = mean("exp.record.write", 1e6);
    out["exp.cache.lookup_us"] = mean("exp.cache.lookup", 1e6);
    out["exp.cache.store_ms"] = mean("exp.cache.store", 1e3);
    out["exp.wire.parse_us"] = mean("exp.wire.parse", 1e6);

    if (auto it = agg.find("machine.run");
        it != agg.end() && !it->second.seconds.empty()) {
        out["machine.run_s"] =
            it->second.selfS /
            static_cast<double>(it->second.seconds.size());
    }
    if (auto it = agg.find("exp.runner.execute");
        it != agg.end() && !it->second.seconds.empty()) {
        Series cells;
        for (double s : it->second.seconds)
            cells.add(s * 1e3);
        out["exp.runner.execute_ms"] = cells.median();
        out["exp.runner.execute_max_ms"] = cells.max();
        if (traced_pass_wall_s > 0)
            out["exp.pool.busy_share"] =
                it->second.totalS / (jobs * traced_pass_wall_s);
        Series cover;
        for (double c : childCoverage(spans, "exp.runner.execute"))
            cover.add(c);
        out["bench.span_coverage"] = cover.median();
    }
}

void
addCellLayers(const CellSums &s, LayerValues &out)
{
    if (s.cells == 0)
        return;
    const double n = static_cast<double>(s.cells);
    out["sim.events"] = s.events / n;
    if (s.events > 0)
        out["sim.ns_per_event"] = 1e9 * s.runSeconds / s.events;
    out["core.traps"] = s.traps / n;
    if (s.parallelNodeCycles > 0)
        out["core.handler_cycles_share"] =
            s.handlerCycles / s.parallelNodeCycles;
    if (s.readHandlerCount > 0)
        out["core.read_handler_mean_cycles"] =
            s.readHandlerSum / s.readHandlerCount;
    if (s.writeHandlerCount > 0)
        out["core.write_handler_mean_cycles"] =
            s.writeHandlerSum / s.writeHandlerCount;
    out["net.messages"] = s.messages / n;
    out["net.retransmits"] = s.retransmits / n;
    out["net.dups_suppressed"] = s.dupsSuppressed / n;
    out["machine.bus_transactions"] = s.busTransactions / n;
    out["audit.transitions"] = s.auditTransitions / n;
}

void
printReport(const Options &opt, const Outcome &out)
{
    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    std::ostringstream stamp;
    stamp << "{\"commit\":" << jsonString(opt.commit)
          << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
          << ",\"compiler\":" << jsonString(std::string("gcc ") + __VERSION__)
          << ",\"nproc\":" << nproc << ",\"jobs\":" << opt.jobs
          << ",\"runs\":" << out.runs
          << ",\"processes\":" << opt.processes << ",\"seed\":" << opt.seed
          << ",\"workload\":" << jsonString(opt.workload)
          << ",\"trace\":" << (opt.trace ? 1 : 0)
          << ",\"seconds\":" << num(opt.seconds)
          << ",\"setups\":" << out.setupS.size()
          << ",\"smoke\":" << (opt.smoke ? "true" : "false") << "}";

    std::printf("perfbench %s  seed %llu  %s\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? "traced (per-layer metrics)"
                          : "untraced (end-to-end metrics)");
    std::printf("stamp %s\n", stamp.str().c_str());
    for (const std::string &f : out.failures)
        std::printf("FAILED: %s\n", f.c_str());

    // End-to-end metrics: the gated set first, then the ones that exist
    // only on some workloads.
    const double wall = out.wallS > 0 ? out.wallS : 1;
    std::string tail_label;
    double tail = out.opMs.tail(tail_label);
    std::vector<E2E> gated = {
        {"setup_s", "s", out.setupS.median(),
         "median of " + std::to_string(out.setupS.size()) + " set-ups in " +
             std::to_string(opt.processes) + " process(es)"},
        {"cells_per_s", "cells/s", out.cells / wall,
         num(out.cells) + " cells in " + num(out.wallS) + " s"},
        {"sim_cycles_per_s", "cycles/s", out.simCycles / wall,
         "simulated cycles of simulated cells per host second"},
        {"peak_rss_mb", "MB", peakRssMb(), "largest ru_maxrss of a process"},
        {"p50_ms", "ms", out.opMs.median(),
         "median " + out.opName + ", n=" + std::to_string(out.opMs.size()) +
             (tail_label.empty() ? std::string()
                                 : ", " + tail_label + "=" + num(tail))},
    };
    std::vector<E2E> extra;
    extra.push_back({"error_rate", "ratio",
                     out.attempted ? static_cast<double>(out.failed) /
                                         static_cast<double>(out.attempted)
                                   : 0,
                     std::to_string(out.failed) + " failed of " +
                         std::to_string(out.attempted) + " attempted"});
    for (const auto &[cls, s] : out.classMs) {
        const std::string n = "n=" + std::to_string(s.size());
        std::string lbl;
        double t = s.tail(lbl);
        extra.push_back({cls + "_p50_ms", "ms", s.median(), n});
        // p99 whenever ten samples lie beyond it, and the highest such
        // percentile when that is another.
        if (s.size() >= 1000 && lbl != "p99")
            extra.push_back({cls + "_p99_ms", "ms", s.quantile(0.99), n});
        if (!lbl.empty())
            extra.push_back({cls + "_" + lbl + "_ms", "ms", t, n});
    }
    if (out.h5FullRatio > 0)
        extra.push_back({"h5_full_ratio", "ratio", out.h5FullRatio,
                         "geomean over six apps of speedup(H5)/"
                         "speedup(full-map)"});

    std::printf("end-to-end%s:\n",
                opt.trace ? " (tracing on; use the untraced run)" : "");
    for (const auto *list : {&gated, &extra})
        for (const E2E &e : *list)
            std::printf("  %-20s %-22s %-9s %s\n", e.name.c_str(),
                        num(e.value).c_str(), e.unit.c_str(),
                        e.note.c_str());

    LayerValues layers = out.layers;
    if (opt.trace) {
        if (!out.tracedPassS.empty() && !out.untracedPassS.empty() &&
            !layers.count("bench.trace_overhead_share")) {
            double u = out.untracedPassS.median();
            layers["bench.trace_overhead_share"] =
                u > 0 ? (out.tracedPassS.median() - u) / u : 0;
        }
        std::printf("per-layer (traced):\n");
        for (const LayerInfo &l : layerCatalog)
            std::printf("  %-32s %-22s %-7s moves %s on %s\n", l.name,
                        num(layers[l.name]).c_str(), l.unit, l.moves,
                        l.workload);
    }

    std::ostringstream metrics;
    metrics << "{";
    bool first = true;
    auto emit = [&](const std::string &name, double v,
                    const std::string &unit) {
        metrics << (first ? "" : ",") << jsonString(name) << ":{\"value\":"
                << num(v) << ",\"unit\":" << jsonString(unit) << "}";
        first = false;
    };
    if (opt.trace) {
        for (const LayerInfo &l : layerCatalog)
            emit(l.name, layers[l.name], l.unit);
    } else {
        for (const E2E &e : gated)
            emit(e.name, e.value, e.unit);
    }
    metrics << "}";

    const bool correct = out.failed == 0 && out.attempted > 0;
    std::ostringstream result;
    result << "{\"correct\":" << (correct ? "true" : "false")
           << ",\"attempted\":" << out.attempted
           << ",\"failed\":" << out.failed
           << ",\"metrics\":" << metrics.str() << "}";

    // The result file carries the stamp and every table row, so
    // compare.py can refuse mismatched builds.
    std::error_code ec;
    std::filesystem::create_directories(opt.outDir, ec);
    std::string path = opt.outDir + "/" + opt.workload + "-seed" +
                       std::to_string(opt.seed) + "-trace" +
                       (opt.trace ? "1" : "0") + ".json";
    std::ofstream f(path, std::ios::trunc);
    f << "{\"stamp\":" << stamp.str() << ",\"result\":" << result.str()
      << ",\"end_to_end\":{";
    first = true;
    for (const auto *list : {&gated, &extra})
        for (const E2E &e : *list) {
            f << (first ? "" : ",") << jsonString(e.name)
              << ":{\"value\":" << num(e.value)
              << ",\"unit\":" << jsonString(e.unit)
              << ",\"note\":" << jsonString(e.note) << "}";
            first = false;
        }
    f << "}}\n";

    std::printf("%s\n", result.str().c_str());
    std::fflush(stdout);
}

} // namespace perfbench
