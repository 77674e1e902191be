#include "bench_support.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "base/json.hh"
#include "exp/wire_json.hh"

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
    std::vector<BenchEntry> merged;
    if (!readFile(out, merged)) {
        std::fprintf(stderr, "%s: not a readable swex-bench-v1 file; "
                             "left unchanged\n", out.c_str());
        return false;
    }
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
    std::string out = "{\"name\":";
    json::appendString(out, e.name);
    out += ",\"metrics\":{";
    for (std::size_t i = 0; i < e.metrics.size(); ++i) {
        if (i != 0)
            out += ',';
        json::appendString(out, e.metrics[i].first);
        out += ':' + jsonNumber(e.metrics[i].second);
    }
    out += "}}";
    return out;
}

/**
 * The entries of the swex-bench-v1 file at @p path, appended to
 * @p out. A missing file is an empty trajectory. @return false when
 * the file exists but is not one this code wrote: not JSON, another
 * schema, or an entry that is not a name and numeric metrics.
 */
bool
JsonTrajectory::readFile(const std::string &path,
                         std::vector<BenchEntry> &out)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return true;
    std::ostringstream text;
    text << f.rdbuf();
    const std::string bytes = text.str();
    using wire::JsonValue;
    JsonValue doc;
    wire::JsonParser parser(bytes);
    if (!parser.parseWhole(doc) || doc.kind != JsonValue::Kind::Object)
        return false;
    const JsonValue *schema = doc.find("schema");
    const JsonValue *entries = doc.find("entries");
    if (schema == nullptr || schema->raw != "swex-bench-v1" ||
        entries == nullptr || entries->kind != JsonValue::Kind::Array)
        return false;
    for (const JsonValue &e : entries->items()) {
        const JsonValue *name = e.find("name");
        const JsonValue *metrics = e.find("metrics");
        if (name == nullptr || name->kind != JsonValue::Kind::String ||
            metrics == nullptr ||
            metrics->kind != JsonValue::Kind::Object)
            return false;
        BenchEntry entry{name->raw, {}};
        for (const JsonValue &v : metrics->members()) {
            if (v.kind != JsonValue::Kind::Number)
                return false;
            entry.metrics.emplace_back(std::string(v.key()),
                                       std::strtod(v.raw.c_str(), nullptr));
        }
        out.push_back(std::move(entry));
    }
    return true;
}

} // namespace swex::bench
