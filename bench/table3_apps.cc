/**
 * @file
 * Reproduces Table 3: application characteristics and sequential
 * times. Problem sizes are scaled down from the paper so the complete
 * study runs in CI time; the sequential cycle counts are converted to
 * seconds at the paper's 33 MHz clock for comparison.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "bench_support.hh"
#include "exp/runner.hh"

using namespace swex;
using namespace swex::bench;

namespace
{

struct Table3Row
{
    const char *label;
    const char *lang;
    const char *size;
    double paperSeconds;
    const char *app;
    AppParams params;
};

const Table3Row rows[] = {
    {"TSP", "Mul-T", "10 city tour", 1.1, "tsp", {}},
    {"AQ", "Semi-C", "x^4y^4 on (0,2)^2", 0.9, "aq", {}},
    {"SMGRID", "Mul-T", "65x65 (paper: 129x129)", 3.0, "smgrid",
     {{"fine", "65"}}},
    {"EVOLVE", "Mul-T", "12 dimensions", 1.3, "evolve", {}},
    {"MP3D", "C", "1024 particles (10k)", 0.6, "mp3d", {}},
    {"WATER", "C", "64 molecules", 2.6, "water", {}},
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const unsigned jobs = parseHarnessArgs("table3_apps", argc, argv).jobs;

    std::printf("Table 3: application characteristics "
                "(sequential time at 33 MHz)\n");
    rule(78);
    std::printf("%-8s %-10s %-22s %12s %10s %10s\n", "Name", "Lang",
                "Size (this repro)", "Seq cycles", "Seq (s)",
                "Paper (s)");
    rule(78);

    // The six sequential references are independent machines; run
    // them as one grid so --jobs N overlaps them without changing
    // the table or the emitted records.
    std::vector<ExperimentSpec> specs;
    for (const Table3Row &row : rows) {
        ExperimentSpec spec{
            .id = std::string("table3/") + row.label,
            .app = row.app,
            .params = row.params,
            .nodes = 64};
        spec.sequential = true;
        specs.push_back(std::move(spec));
    }

    Runner runner;
    std::vector<RunRecord *> recs = runner.runAll(specs, jobs);
    for (std::size_t i = 0; i < std::size(rows); ++i) {
        Tick t = recs[i]->simCycles;
        std::printf("%-8s %-10s %-22s %12llu %10.3f %10.1f\n",
                    rows[i].label, rows[i].lang, rows[i].size,
                    static_cast<unsigned long long>(t),
                    static_cast<double>(t) / clockHz,
                    rows[i].paperSeconds);
    }
    rule(78);
    if (!runner.emitRecords())
        std::fprintf(stderr,
                     "warning: table3_apps run records were "
                     "dropped\n");
    return 0;
}
