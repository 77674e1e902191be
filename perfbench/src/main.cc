/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload <fig4_direct|stress_audit|replay_portable|
 *                         serve_mixed>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--smoke] [--commit <id>]
 *
 * Prints the stamp, a table of every metric with its unit, and as the
 * last line one JSON object: {"correct","attempted","failed","metrics"}.
 * With --trace 0 the metrics are the end-to-end set, with --trace 1 the
 * per-layer set (and the span list is written under .bench_results).
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "base/logging.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <fig4_direct|stress_audit|"
                 "replay_portable|serve_mixed> --seed <n> --seconds <s> "
                 "--trace <0|1> [--smoke] [--commit <id>]\n",
                 why);
    std::exit(2);
}

/**
 * Processes an untraced run's window is split over. On a shared host a
 * process keeps one speed for its lifetime, but the next process may run
 * 15% faster or slower (address-space randomization is not the cause),
 * so a run of one process reports one draw of that; four average it.
 */
constexpr unsigned measuredProcesses = 4;

using Workload = Outcome (*)(const Options &);

/** Run @p fn in a fresh run directory, removed afterwards. */
Outcome
runIn(const Options &opt, Workload fn)
{
    Options o = opt;
    o.runDir += "/" + opt.workload + "-" + std::to_string(getpid());
    std::error_code ec;
    std::filesystem::create_directories(o.runDir, ec);
    Outcome out = fn(o);
    std::filesystem::remove_all(o.runDir, ec);
    return out;
}

/** Run @p fn in child processes one after another, each measuring its
 *  share of the window, and merge what they measured. */
Outcome
runInProcesses(const Options &opt, Workload fn)
{
    Outcome merged;
    Options part = opt;
    part.seconds = opt.seconds / opt.processes;
    for (unsigned p = 0; p < opt.processes; ++p) {
        int fds[2];
        if (pipe(fds) != 0) {
            merged.fail("pipe: " + std::string(std::strerror(errno)));
            break;
        }
        pid_t pid = fork();
        if (pid == 0) {
            close(fds[0]);
            std::string text = runIn(part, fn).serialize();
            for (std::size_t off = 0; off < text.size();) {
                ssize_t n = write(fds[1], text.data() + off, text.size() - off);
                if (n <= 0)
                    _exit(1);
                off += static_cast<std::size_t>(n);
            }
            _exit(0);
        }
        close(fds[1]);
        std::string text;
        char buf[65536];
        for (ssize_t n; pid > 0 && (n = read(fds[0], buf, sizeof(buf))) != 0;) {
            if (n > 0)
                text.append(buf, static_cast<std::size_t>(n));
            else if (errno != EINTR)
                break;
        }
        close(fds[0]);
        int status = 0;
        if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0) {
            ++merged.attempted;
            merged.fail("measuring process " + std::to_string(p) +
                        " did not finish cleanly");
        }
        merged.merge(text);
    }
    return merged;
}

double
parseNumber(const char *opt, const char *v, double lo, double hi)
{
    errno = 0;
    char *end = nullptr;
    double d = std::strtod(v, &end);
    if (end == v || *end != '\0' || errno != 0 || !(d >= lo && d <= hi))
        usage((std::string("bad value for ") + opt).c_str());
    return d;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            opt.workload = next();
        } else if (a == "--seed") {
            opt.seed = static_cast<std::uint64_t>(
                parseNumber("--seed", next(), 0, 1e15));
            have_seed = true;
        } else if (a == "--seconds") {
            opt.seconds = parseNumber("--seconds", next(), 0.1, 3600);
            have_seconds = true;
        } else if (a == "--trace") {
            opt.trace = parseNumber("--trace", next(), 0, 1) != 0;
            have_trace = true;
        } else if (a == "--smoke") {
            opt.smoke = true;
        } else if (a == "--commit") {
            opt.commit = next();
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds and --trace are required");

    long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    opt.jobs = static_cast<unsigned>(std::clamp(nproc, 1L, 4L));
    swex::setQuiet(true);

    Workload fn = nullptr;
    if (opt.workload == "fig4_direct")
        fn = runFig4Direct;
    else if (opt.workload == "stress_audit")
        fn = runStressAudit;
    else if (opt.workload == "replay_portable")
        fn = runReplayPortable;
    else if (opt.workload == "serve_mixed")
        fn = runServeMixed;
    else
        usage(("unknown workload '" + opt.workload + "'").c_str());

    // The traced run keeps its spans in this process; the end-to-end
    // measurement is split over several.
    if (!opt.trace && !opt.smoke)
        opt.processes = measuredProcesses;
    Outcome out = opt.processes > 1 ? runInProcesses(opt, fn) : runIn(opt, fn);

    std::error_code ec;
    if (opt.trace) {
        std::vector<SpanRecord> spans = collectSpans();
        addSpanLayers(spans, opt.jobs, out.tracedWallS, out.layers);
        std::filesystem::create_directories(opt.outDir, ec);
        std::string path = opt.outDir + "/spans-" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".jsonl";
        if (!writeSpans(path, spans))
            std::fprintf(stderr, "perfbench: could not write %s\n",
                         path.c_str());
    }
    printReport(opt, out);
    return 0;
}
