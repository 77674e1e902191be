/**
 * @file
 * Name-indexed factory for the application case studies. The
 * registry is the single place that knows how to turn a textual app
 * name plus key=value parameters into a configured App instance;
 * benches, the experiment runner, and swex_cli all construct
 * applications through it, so adding a workload is a one-file edit.
 */

#ifndef SWEX_APPS_REGISTRY_HH
#define SWEX_APPS_REGISTRY_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.hh"

namespace swex
{

/**
 * Per-app configuration as an ordered key -> value map of strings
 * (e.g. {"wss","8"} for WORKER). Each app's factory parses and
 * validates its own keys; unknown keys are errors.
 */
using AppParams = std::map<std::string, std::string>;

/**
 * Typed accessor over an AppParams map that tracks which keys were
 * consumed, so a factory can reject misspelled parameters. A value
 * that does not parse reads as the default and leaves an error, which
 * finish() reports: a bad request never stops the process.
 */
class ParamReader
{
  public:
    ParamReader(const AppParams &params, std::string app);

    /** Integers are decimal digits only, as on the wire (no base
     *  prefix, '+' or space); getInt also takes a leading '-'. */
    int getInt(const std::string &key, int def);

    /** getInt restricted to non-negative values, for parameters that
     *  are counts (sizes, iterations, steps). */
    int getCount(const std::string &key, int def);

    std::uint64_t getU64(const std::string &key, std::uint64_t def);
    double getDouble(const std::string &key, double def);
    bool getBool(const std::string &key, bool def);

    /** Unless @p ok, the error that parameter @p key @p why (a range
     *  the app needs, e.g. "must be in [3, 16]"). */
    void
    require(const std::string &key, bool ok, const std::string &why)
    {
        if (!ok)
            fail(key, why);
    }

    /** "" if every value read parsed and every key was consumed; else
     *  the first error, naming the app and the parameter. */
    std::string finish() const;

  private:
    const std::string *lookup(const std::string &key);
    void fail(const std::string &key, const std::string &why);

    const AppParams &_params;
    std::string _app;
    std::vector<std::string> _consumed;
    std::string _error;   ///< the first get* error
};

/**
 * The process-wide application factory. Safe for concurrent use:
 * first use builds the table of built-in apps exactly once (C++ magic
 * static) and nothing changes it afterwards, so lookups take no lock.
 * Factories themselves are pure (they only read their arguments), so
 * make() can be called from any number of sweep worker threads.
 */
class AppRegistry
{
  public:
    /** Builds a configured app. */
    using Builder = std::function<std::unique_ptr<App>()>;

    struct Entry
    {
        std::string name;        ///< registry key (lower case)
        std::string summary;     ///< one-line description
        /** A tiny configuration every smoke test can afford to run. */
        AppParams smokeParams;
        /**
         * Read and range-check the app's parameters for `nodes`
         * threads on a machine of `machine_nodes` nodes (1 for a
         * sequential reference), and return the builder of the
         * configured app. A parameter that sizes a shared allocation
         * must fit that machine's per-node segments. Parsing builds
         * nothing (EVOLVE computes its ground truth in the builder),
         * so checking a request stays cheap.
         */
        std::function<Builder(ParamReader &, int nodes,
                              int machine_nodes)>
            parse;

        /**
         * Rough host cost of one run relative to WORKER (= 1.0), for
         * longest-first sweep scheduling. A hint, not a contract:
         * only the order worker threads claim grid cells depends on
         * it, never any result.
         */
        double costWeight = 1.0;

        /**
         * Declares the app's op stream timing-independent: every
         * control-flow decision depends only on (params, nodes, tid)
         * and on shared values that are immutable for the whole run
         * (data written once in setup() and never stored to again —
         * EVOLVE's fitness table is the canonical case), so one
         * recorded trace replays exactly under any protocol /
         * machine model / latency / seed cell. Requires static
         * reference streams and hardware sync only; apps that spin
         * on shared flags, take spin locks, or pull from work queues
         * (timing decides who gets what) must leave this false —
         * their traces are config-bound and the record path refuses
         * to treat them as portable. Branching on a value another
         * thread may write during the run is always disqualifying.
         */
        bool tracePortable = false;
    };

    /** The singleton, with the built-in apps already registered. */
    static AppRegistry &instance();

    bool contains(const std::string &name) const;
    const Entry &entry(const std::string &name) const;

    /** Registered names, in registration order. */
    std::vector<std::string> names() const;

    /** "" if @p params configure app @p name for @p nodes threads on
     *  a machine of @p machine_nodes nodes, else why not (unknown
     *  app, unknown parameter, malformed or out-of-range value, or a
     *  shared allocation the machine cannot hold). Builds no app. */
    std::string check(const std::string &name, const AppParams &params,
                      int nodes, int machine_nodes) const;

    /**
     * Construct a configured app. @p nodes is the thread count of the
     * parallel kernel (some apps precompute per-thread-count ground
     * truth); the parameters are checked against a machine of that
     * many nodes. Fatal on unknown names or parameters: front ends
     * check() first, with the machine the cell runs on.
     */
    std::unique_ptr<App> make(const std::string &name,
                              const AppParams &params,
                              int nodes) const;

  private:
    AppRegistry();

    /** Register a built-in application (name must be unique). */
    void add(Entry entry);

    const Entry *find(const std::string &name) const;

    std::vector<Entry> _entries;
};

} // namespace swex

#endif // SWEX_APPS_REGISTRY_HH
