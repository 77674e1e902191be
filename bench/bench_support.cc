#include "bench_support.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "base/json.hh"

namespace swex::bench
{

void
rule(int width)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

long
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

HarnessArgs
parseHarnessArgs(const char *tool, int argc, char **argv,
                 const std::vector<std::string> &row_names)
{
    auto usage_error = [tool](const std::string &why) {
        std::fprintf(stderr, "%s: %s\n", tool, why.c_str());
        std::exit(2);
    };
    HarnessArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--jobs") {
            std::uint64_t n = 0;
            if (i + 1 >= argc || !json::parseU64(argv[i + 1], n) ||
                n < 1 || n > 256)
                usage_error("--jobs wants an integer in [1, 256]");
            args.jobs = static_cast<unsigned>(n);
            ++i;
        } else if (std::find(row_names.begin(), row_names.end(), a) !=
                   row_names.end()) {
            args.rows.push_back(a);
        } else {
            std::string known;
            for (const std::string &r : row_names)
                known += " " + r;
            usage_error("unknown argument '" + a + "' (want --jobs N" +
                        (known.empty() ? "" : " or a row:" + known) +
                        ")");
        }
    }
    return args;
}

void
JsonTrajectory::record(
    std::string name,
    std::vector<std::pair<std::string, double>> metrics)
{
    _entries.push_back({std::move(name), std::move(metrics)});
}

bool
JsonTrajectory::updateFile(const std::string &path) const
{
    std::string out = resolvePath(path);
    std::vector<BenchEntry> merged = readFile(out);
    for (const BenchEntry &e : _entries) {
        bool replaced = false;
        for (BenchEntry &old : merged) {
            if (old.name == e.name) {
                old = e;
                replaced = true;
                break;
            }
        }
        if (!replaced)
            merged.push_back(e);
    }

    std::ofstream f(out, std::ios::trunc);
    if (!f)
        return false;
    f << "{\"schema\":\"swex-bench-v1\",\"entries\":[\n";
    for (std::size_t i = 0; i < merged.size(); ++i) {
        f << ' ' << entryLine(merged[i])
          << (i + 1 < merged.size() ? "," : "") << '\n';
    }
    f << "]}\n";
    return static_cast<bool>(f);
}

std::string
JsonTrajectory::resolvePath(const std::string &fallback)
{
    const char *env = std::getenv("SWEX_BENCH_JSON");
    return (env != nullptr && *env != '\0') ? env : fallback;
}

namespace
{

std::string
jsonNumber(double v)
{
    if (!(v == v) || v > 1e308 || v < -1e308)
        return "0";   // JSON has no NaN/Inf
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

} // anonymous namespace

std::string
JsonTrajectory::entryLine(const BenchEntry &e)
{
    std::ostringstream os;
    os << "{\"name\":\"" << e.name << "\",\"metrics\":{";
    for (std::size_t i = 0; i < e.metrics.size(); ++i) {
        os << (i ? "," : "") << '"' << e.metrics[i].first
           << "\":" << jsonNumber(e.metrics[i].second);
    }
    os << "}}";
    return os.str();
}

/**
 * Line-oriented reader for exactly the format updateFile emits
 * (one entry per line). Anything it cannot parse is dropped; the
 * file is regenerated from scratch in that case.
 */
std::vector<BenchEntry>
JsonTrajectory::readFile(const std::string &path)
{
    std::vector<BenchEntry> entries;
    std::ifstream f(path);
    if (!f)
        return entries;
    std::string line;
    while (std::getline(f, line)) {
        std::size_t n = line.find("{\"name\":\"");
        if (n == std::string::npos)
            continue;
        n += 9;
        std::size_t nEnd = line.find('"', n);
        std::size_t m = line.find("\"metrics\":{", n);
        if (nEnd == std::string::npos || m == std::string::npos)
            continue;
        BenchEntry e;
        e.name = line.substr(n, nEnd - n);
        std::size_t p = m + 11;
        while (p < line.size() && line[p] != '}') {
            std::size_t kBeg = line.find('"', p);
            if (kBeg == std::string::npos)
                break;
            std::size_t kEnd = line.find('"', kBeg + 1);
            std::size_t colon = line.find(':', kEnd);
            if (kEnd == std::string::npos ||
                colon == std::string::npos) {
                break;
            }
            char *end = nullptr;
            double v = std::strtod(line.c_str() + colon + 1, &end);
            e.metrics.emplace_back(
                line.substr(kBeg + 1, kEnd - kBeg - 1), v);
            p = static_cast<std::size_t>(end - line.c_str());
            if (p < line.size() && line[p] == ',')
                ++p;
        }
        entries.push_back(std::move(e));
    }
    return entries;
}

} // namespace swex::bench
