#include "apps/registry.hh"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdlib>

#include "apps/aq.hh"
#include "apps/evolve.hh"
#include "apps/micro.hh"
#include "apps/mp3d.hh"
#include "apps/smgrid.hh"
#include "apps/tsp.hh"
#include "apps/water.hh"
#include "apps/worker.hh"
#include "base/json.hh"
#include "base/logging.hh"

namespace swex
{

ParamReader::ParamReader(const AppParams &params, std::string app)
    : _params(params), _app(std::move(app))
{
}

const std::string *
ParamReader::lookup(const std::string &key)
{
    _consumed.push_back(key);
    auto it = _params.find(key);
    return it == _params.end() ? nullptr : &it->second;
}

void
ParamReader::fail(const std::string &key, const std::string &why)
{
    if (!_error.empty())
        return;
    auto it = _params.find(key);
    _error = _app + ": parameter " + key +
             (it == _params.end() ? "" : "=" + it->second) + " " + why;
}

namespace
{

/** Parse @p text in the wire's decimal grammar (json::parseU64).
 *  @return why it does not parse, or nullptr if it does. */
const char *
parseDecimal(const std::string &text, std::uint64_t &out)
{
    if (json::parseU64(text, out))
        return nullptr;
    bool digits = !text.empty() &&
                  std::all_of(text.begin(), text.end(), [](char c) {
                      return c >= '0' && c <= '9';
                  });
    return digits ? "is out of range" : "is not an integer";
}

/**
 * Require that the @p blocks setup() takes on its busiest node, sized
 * by parameter @p key, fit the heap each node's segment holds above
 * heapBase on a @p machine_nodes-node machine.
 */
void
requireHeap(ParamReader &r, const std::string &key, std::uint64_t blocks,
            int machine_nodes)
{
    r.require(key, blocks <= (segBytes - heapBase) / blockBytes,
              "does not fit the shared memory of a " +
                  std::to_string(machine_nodes) + "-node machine (" +
                  std::to_string(segBytes >> 20) + " MiB per node)");
}

} // anonymous namespace

int
ParamReader::getInt(const std::string &key, int def)
{
    const std::string *v = lookup(key);
    if (!v)
        return def;
    // A leading '-' is the one addition to the decimal grammar, so
    // getCount can say a negative count is not a count.
    bool negative = !v->empty() && v->front() == '-';
    std::uint64_t n = 0;
    if (const char *why = parseDecimal(v->substr(negative ? 1 : 0), n)) {
        fail(key, why);
        return def;
    }
    if (n > (negative ? std::uint64_t{INT_MAX} + 1 : INT_MAX)) {
        fail(key, "is out of range");
        return def;
    }
    return static_cast<int>(negative ? -static_cast<std::int64_t>(n)
                                     : static_cast<std::int64_t>(n));
}

int
ParamReader::getCount(const std::string &key, int def)
{
    int n = getInt(key, def);
    if (n < 0) {
        fail(key, "is not a non-negative count");
        return def;
    }
    return n;
}

std::uint64_t
ParamReader::getU64(const std::string &key, std::uint64_t def)
{
    const std::string *v = lookup(key);
    if (!v)
        return def;
    if (!v->empty() && v->front() == '-') {
        fail(key, "must be non-negative");
        return def;
    }
    std::uint64_t n = 0;
    if (const char *why = parseDecimal(*v, n)) {
        fail(key, why);
        return def;
    }
    return n;
}

double
ParamReader::getDouble(const std::string &key, double def)
{
    const std::string *v = lookup(key);
    if (!v)
        return def;
    char *end = nullptr;
    double d = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0') {
        fail(key, "is not a number");
        return def;
    }
    return d;
}

bool
ParamReader::getBool(const std::string &key, bool def)
{
    const std::string *v = lookup(key);
    if (!v)
        return def;
    if (*v == "1" || *v == "true" || *v == "yes")
        return true;
    if (*v == "0" || *v == "false" || *v == "no")
        return false;
    fail(key, "is not a boolean");
    return def;
}

std::string
ParamReader::finish() const
{
    if (!_error.empty())
        return _error;
    for (const auto &[key, value] : _params) {
        if (std::find(_consumed.begin(), _consumed.end(), key) ==
                _consumed.end())
            return _app + ": unknown parameter '" + key + "' (=" + value +
                   ")";
    }
    return "";
}

AppRegistry &
AppRegistry::instance()
{
    static AppRegistry registry;
    return registry;
}

const AppRegistry::Entry *
AppRegistry::find(const std::string &name) const
{
    for (const Entry &e : _entries)
        if (e.name == name)
            return &e;
    return nullptr;
}

void
AppRegistry::add(Entry entry)
{
    SWEX_ASSERT(find(entry.name) == nullptr,
                "app '%s' already registered", entry.name.c_str());
    _entries.push_back(std::move(entry));
}

bool
AppRegistry::contains(const std::string &name) const
{
    return find(name) != nullptr;
}

const AppRegistry::Entry &
AppRegistry::entry(const std::string &name) const
{
    if (const Entry *e = find(name))
        return *e;
    std::string all;
    for (const Entry &e : _entries)
        all += (all.empty() ? "" : ", ") + e.name;
    fatal("unknown app '%s' (registered: %s)", name.c_str(),
          all.c_str());
}

std::vector<std::string>
AppRegistry::names() const
{
    std::vector<std::string> out;
    for (const Entry &e : _entries)
        out.push_back(e.name);
    return out;
}

std::string
AppRegistry::check(const std::string &name, const AppParams &params,
                   int nodes, int machine_nodes) const
{
    const Entry *e = find(name);
    if (e == nullptr)
        return "unknown app '" + name + "'";
    ParamReader r(params, name);
    e->parse(r, nodes, machine_nodes);
    return r.finish();
}

std::unique_ptr<App>
AppRegistry::make(const std::string &name, const AppParams &params,
                  int nodes) const
{
    ParamReader r(params, name);
    Builder build = entry(name).parse(r, nodes, nodes);
    std::string err = r.finish();
    if (!err.empty())
        fatal("%s", err.c_str());
    return build();
}

AppRegistry::AppRegistry()
{
    add({"worker",
         "synthetic benchmark with exact worker-set sizes (Sec. 5)",
         {{"wss", "2"}, {"iterations", "2"}},
         [](ParamReader &r, int nodes, int) -> Builder {
             WorkerConfig c;
             c.workerSetSize = r.getCount("wss", c.workerSetSize);
             c.iterations = r.getCount("iterations", c.iterations);
             c.thinkTime = static_cast<Cycles>(
                 r.getU64("think", c.thinkTime));
             r.require("wss", c.workerSetSize >= 1 &&
                                  c.workerSetSize <= nodes,
                       "must be in [1, nodes=" + std::to_string(nodes) +
                           "]");
             return [c, nodes] {
                 return std::make_unique<WorkerApp>(c, nodes);
             };
         },
         1.0,
         /*tracePortable=*/true});

    add({"tsp",
         "branch-and-bound traveling salesman (Sec. 6)",
         {{"cities", "6"}, {"frontier", "8"}},
         [](ParamReader &r, int, int machine_nodes) -> Builder {
             TspConfig c;
             c.numCities = r.getCount("cities", c.numCities);
             c.seed = r.getU64("seed", c.seed);
             c.expandWork = static_cast<Cycles>(
                 r.getU64("expand_work", c.expandWork));
             c.collideLayout = r.getBool("collide", c.collideLayout);
             c.frontierTarget = r.getU64("frontier", c.frontierTarget);
             const bool cities_ok = c.numCities >= 3 && c.numCities <= 16;
             r.require("cities", cities_ok, "must be in [3, 16]");
             if (cities_ok) {
                 const std::uint64_t most =
                     TspApp::maxFrontier(c.numCities, machine_nodes);
                 r.require("frontier", c.frontierTarget <= most,
                           "must be at most " + std::to_string(most) +
                               ": the pre-split must fit the work "
                               "queues of a " +
                               std::to_string(machine_nodes) +
                               "-node machine");
             }
             return [c] { return std::make_unique<TspApp>(c); };
         },
         20.0});

    add({"aq",
         "adaptive quadrature over a work queue (Sec. 6)",
         {{"tolerance", "0.001"}, {"max_depth", "8"},
          {"eval_work", "500"}},
         [](ParamReader &r, int, int) -> Builder {
             AqConfig c;
             c.tolerance = r.getDouble("tolerance", c.tolerance);
             c.maxDepth = r.getCount("max_depth", c.maxDepth);
             c.evalWork = static_cast<Cycles>(
                 r.getU64("eval_work", c.evalWork));
             const bool tolerance_ok =
                 c.tolerance > 0 && std::isfinite(c.tolerance);
             r.require("tolerance", tolerance_ok,
                       "must be a positive finite number");
             const bool depth_ok = c.maxDepth <= AqApp::maxDepthBound;
             r.require("max_depth", depth_ok,
                       "must be at most " +
                           std::to_string(AqApp::maxDepthBound));
             // The host walks the whole refinement tree before the
             // run; the walk here is the one the app is built from.
             AqTree tree;
             if (tolerance_ok && depth_ok) {
                 tree = AqApp::walkTree(c);
                 r.require("tolerance", tree.rects <= AqApp::maxRects,
                           "refines past " +
                               std::to_string(AqApp::maxRects) +
                               " rectangles by max_depth=" +
                               std::to_string(c.maxDepth) +
                               ": raise tolerance or lower max_depth");
             }
             return [c, tree] {
                 return std::make_unique<AqApp>(c, tree);
             };
         },
         2.0});

    add({"smgrid",
         "static multigrid PDE solver (Sec. 6)",
         {{"fine", "9"}, {"levels", "2"}},
         [](ParamReader &r, int, int machine_nodes) -> Builder {
             SmgridConfig c;
             c.fineSize = r.getCount("fine", c.fineSize);
             c.levels = r.getCount("levels", c.levels);
             c.sweeps = r.getCount("sweeps", c.sweeps);
             c.vcycles = r.getCount("vcycles", c.vcycles);
             c.pointWork = static_cast<Cycles>(
                 r.getU64("point_work", c.pointWork));
             r.require("fine", c.fineSize >= 5 && c.fineSize % 2 == 1,
                       "must be odd and at least 5");
             r.require("levels", c.levels >= 1, "must be at least 1");
             r.require("sweeps", c.sweeps >= 1, "must be at least 1");
             r.require("vcycles", c.vcycles >= 1, "must be at least 1");
             requireHeap(r, "fine",
                         SmgridApp::setupBlocks(c, machine_nodes),
                         machine_nodes);
             return [c] { return std::make_unique<SmgridApp>(c); };
         },
         5.0,
         // Static grid partition, hardware barriers, per-thread
         // residual slots with a thread-0 reduction: every reference
         // is a pure function of (params, nodes, tid).
         /*tracePortable=*/true});

    add({"evolve",
         "genome evolution as hypercube traversal (Sec. 6)",
         {{"dims", "6"}, {"walks", "1"}},
         [](ParamReader &r, int nodes, int machine_nodes) -> Builder {
             EvolveConfig c;
             c.dimensions = r.getCount("dims", c.dimensions);
             c.walksPerThread = r.getCount("walks", c.walksPerThread);
             c.seed = r.getU64("seed", c.seed);
             c.stepWork = static_cast<Cycles>(
                 r.getU64("step_work", c.stepWork));
             const bool dims_ok = c.dimensions >= 4 && c.dimensions <= 20;
             r.require("dims", dims_ok, "must be in [4, 20]");
             if (dims_ok)
                 requireHeap(r, "dims",
                             EvolveApp::setupBlocks(c, nodes,
                                                    machine_nodes),
                             machine_nodes);
             return [c, nodes] {
                 auto app = std::make_unique<EvolveApp>(c);
                 app->computeGroundTruth(nodes);
                 return app;
             };
         },
         2.0,
         // Walks branch only on the fitness table, which is written
         // once in setup() and never stored to during the run; the
         // global best is a per-thread-slot write plus a barrier and
         // a thread-0 reduction, not a lock.
         /*tracePortable=*/true});

    add({"mp3d",
         "rarefied-fluid particle simulation (SPLASH, Sec. 6)",
         {{"particles", "64"}, {"steps", "2"}},
         [](ParamReader &r, int, int machine_nodes) -> Builder {
             Mp3dConfig c;
             c.particles = r.getCount("particles", c.particles);
             c.steps = r.getCount("steps", c.steps);
             c.seed = r.getU64("seed", c.seed);
             c.moveWork = static_cast<Cycles>(
                 r.getU64("move_work", c.moveWork));
             requireHeap(r, "particles",
                         Mp3dApp::setupBlocks(c, machine_nodes),
                         machine_nodes);
             return [c] { return std::make_unique<Mp3dApp>(c); };
         },
         10.0});

    add({"water",
         "N-body molecular dynamics (SPLASH, Sec. 6)",
         {{"molecules", "8"}, {"steps", "1"}},
         [](ParamReader &r, int, int machine_nodes) -> Builder {
             WaterConfig c;
             c.molecules = r.getCount("molecules", c.molecules);
             c.steps = r.getCount("steps", c.steps);
             c.seed = r.getU64("seed", c.seed);
             c.pairWork = static_cast<Cycles>(
                 r.getU64("pair_work", c.pairWork));
             requireHeap(r, "molecules",
                         WaterApp::setupBlocks(c, machine_nodes),
                         machine_nodes);
             return [c] { return std::make_unique<WaterApp>(c); };
         },
         15.0});

    // The sharing-pattern microworkloads share one factory shape:
    // iterations / work / jitter, kind baked into the entry.
    auto micro_factory = [](MicroKind kind) {
        return [kind](ParamReader &r, int nodes, int) -> Builder {
            MicroConfig c;
            c.iterations = r.getCount("iterations", c.iterations);
            c.workCycles = static_cast<Cycles>(
                r.getU64("work", c.workCycles));
            c.jitter = r.getU64("jitter", c.jitter);
            return [kind, c, nodes] {
                return std::make_unique<MicroApp>(kind, c, nodes);
            };
        };
    };

    add({"falseshare",
         "packed per-thread counters sharing blocks (machine-model "
         "study)",
         {{"iterations", "4"}},
         micro_factory(MicroKind::FalseSharing),
         0.5,
         /*tracePortable=*/true});

    add({"padded",
         "block-padded per-thread counters, contention-free control",
         {{"iterations", "4"}},
         micro_factory(MicroKind::Padded),
         0.5,
         /*tracePortable=*/true});

    add({"hotline",
         "one hot block read by all, written by one (machine-model "
         "study)",
         {{"iterations", "4"}},
         micro_factory(MicroKind::HotLine),
         0.5,
         /*tracePortable=*/true});
}

} // namespace swex
