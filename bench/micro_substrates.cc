/**
 * @file
 * Google-benchmark microbenchmarks of the simulator substrates: event
 * queue throughput (callback shim, intrusive events, spill heap, and
 * a fig2-like delay mix), message pooling, cache lookup/fill,
 * extended-directory operations, network injection, a whole-machine
 * WORKER iteration, the two kernels of a warm result-cache hit
 * (decoding a swex-rec entry and parsing the served response line),
 * and the server's parse of a request line.
 * These track the host-side performance of the simulator itself.
 *
 * Besides the console table, results are merged into
 * BENCH_SUBSTRATES.json (override with SWEX_BENCH_JSON) so the
 * repository carries a machine-readable performance trajectory.
 */

#include <benchmark/benchmark.h>

#include <sstream>

#include "apps/worker.hh"
#include "base/rng.hh"
#include "bench_support.hh"
#include "core/ext_directory.hh"
#include "exp/cache/record_io.hh"
#include "exp/runner.hh"
#include "exp/wire_json.hh"
#include "machine/mem_api.hh"
#include "net/message_pool.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"

using namespace swex;

namespace
{

constexpr int batch = 1000;   ///< events per measured batch

void
addEventRate(benchmark::State &state)
{
    state.counters["events_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * batch,
        benchmark::Counter::kIsRate);
}

/**
 * Cold-path throughput through the std::function shim: each
 * iteration pays queue construction (wheel init, pool warm-up) on
 * top of the schedule/run work, as a fresh Machine would.
 */
void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int sink = 0;
        for (int i = 0; i < batch; ++i)
            eq.schedule(static_cast<Tick>(i % 97), [&] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    addEventRate(state);
}
BENCHMARK(BM_EventQueueScheduleRun);

/**
 * Steady-state shim throughput: one long-lived queue, as in an
 * application run (one EventQueue per Machine, millions of events).
 */
void
BM_EventQueueWarm(benchmark::State &state)
{
    EventQueue eq;
    int sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < batch; ++i)
            eq.scheduleIn(static_cast<Cycles>(i % 97), [&] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    addEventRate(state);
}
BENCHMARK(BM_EventQueueWarm);

struct CountEvent final : Event
{
    void process() override { ++*sink; }

    int *sink = nullptr;
};

/** The allocation-free component path: statically-owned events. */
void
BM_EventQueueIntrusive(benchmark::State &state)
{
    EventQueue eq;
    int sink = 0;
    std::vector<CountEvent> events(batch);
    for (CountEvent &e : events)
        e.sink = &sink;
    for (auto _ : state) {
        for (int i = 0; i < batch; ++i)
            eq.scheduleIn(events[static_cast<std::size_t>(i)],
                          static_cast<Cycles>(i % 97));
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    addEventRate(state);
}
BENCHMARK(BM_EventQueueIntrusive);

/** Delays beyond the wheel horizon: everything takes the spill heap. */
void
BM_EventQueueFarFuture(benchmark::State &state)
{
    EventQueue eq;
    int sink = 0;
    std::vector<CountEvent> events(batch);
    for (CountEvent &e : events)
        e.sink = &sink;
    for (auto _ : state) {
        for (int i = 0; i < batch; ++i) {
            eq.scheduleIn(events[static_cast<std::size_t>(i)],
                          EventQueue::wheelSize +
                              static_cast<Cycles>((i * 37) % 4096));
        }
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    addEventRate(state);
}
BENCHMARK(BM_EventQueueFarFuture);

/**
 * A delay mix shaped like the protocol benches: mostly 1-20 cycle
 * network/controller latencies, some 100-900 cycle compute segments,
 * a tail of multi-thousand-cycle waits that spill to the heap.
 */
void
BM_EventQueueMixedDelays(benchmark::State &state)
{
    std::vector<Cycles> delays(batch);
    Rng rng(7);
    for (Cycles &d : delays) {
        std::uint64_t pick = rng.below(10);
        if (pick < 7)
            d = 1 + rng.below(20);
        else if (pick < 9)
            d = 100 + rng.below(800);
        else
            d = 2000 + rng.below(6000);
    }
    EventQueue eq;
    int sink = 0;
    std::vector<CountEvent> events(batch);
    for (CountEvent &e : events)
        e.sink = &sink;
    for (auto _ : state) {
        for (int i = 0; i < batch; ++i) {
            eq.scheduleIn(events[static_cast<std::size_t>(i)],
                          delays[static_cast<std::size_t>(i)]);
        }
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    addEventRate(state);
}
BENCHMARK(BM_EventQueueMixedDelays);

/** Message send/deliver through the free-list message pool. */
void
BM_MessagePoolSendRecv(benchmark::State &state)
{
    EventQueue eq;
    MessagePool pool;
    int delivered = 0;
    auto handler = +[](void *ctx, Message &) {
        ++*static_cast<int *>(ctx);
    };
    for (auto _ : state) {
        for (int i = 0; i < batch; ++i) {
            PooledMsgEvent &ev = pool.acquire(&delivered, handler,
                                              EventPrio::Network);
            ev.msg.type = MsgType::ReadReq;
            ev.msg.addr = static_cast<Addr>(i) << 4;
            eq.scheduleIn(ev, static_cast<Cycles>(i % 13));
        }
        eq.run();
        benchmark::DoNotOptimize(delivered);
    }
    addEventRate(state);
    state.counters["pool_events"] =
        static_cast<double>(pool.capacity());
}
BENCHMARK(BM_MessagePoolSendRecv);

void
BM_CacheFillAccess(benchmark::State &state)
{
    stats::Group g;
    Cache cache(64 * 1024, 6, &g);
    Rng rng(1);
    for (auto _ : state) {
        Addr a = blockAlign(rng.below(1 << 22));
        cache.fill(a, LineState::Shared, DataBlock{});
        bool vh = false;
        benchmark::DoNotOptimize(cache.access(a, vh));
    }
}
BENCHMARK(BM_CacheFillAccess);

void
BM_ExtDirectoryChurn(benchmark::State &state)
{
    stats::Group g;
    ExtDirectory ext(&g);
    Rng rng(2);
    for (auto _ : state) {
        Addr a = blockAlign(rng.below(1 << 20));
        ExtEntry &e = ext.alloc(a);
        for (NodeId n = 0; n < 20; ++n)
            ext.addSharer(e, n);
        ext.release(a);
    }
}
BENCHMARK(BM_ExtDirectoryChurn);

void
BM_MeshInjection(benchmark::State &state)
{
    struct NullSink : MsgReceiver
    {
        void receiveMessage(const Message &) override {}
    };
    EventQueue eq;
    stats::Group g;
    MeshNetwork net(eq, 64, NetworkConfig{}, &g);
    NullSink sink;
    for (int i = 0; i < 64; ++i)
        net.setReceiver(i, &sink);
    Rng rng(3);
    for (auto _ : state) {
        Message m;
        m.type = MsgType::ReadReq;
        m.src = static_cast<NodeId>(rng.below(64));
        m.dst = static_cast<NodeId>(rng.below(64));
        m.addr = 0x100;
        net.send(m);
        eq.run();
    }
}
BENCHMARK(BM_MeshInjection);

void
BM_WorkerIteration16(benchmark::State &state)
{
    setQuiet(true);
    double cycles = 0;
    double events = 0;
    for (auto _ : state) {
        MachineConfig mc;
        mc.numNodes = 16;
        mc.protocol = ProtocolConfig::hw(5);
        Machine m(mc);
        WorkerConfig wc;
        wc.workerSetSize = 8;
        wc.iterations = 2;
        WorkerApp app(wc);
        Tick t = app.runParallel(m);
        benchmark::DoNotOptimize(t);
        cycles += static_cast<double>(t);
        events += static_cast<double>(m.eventq.numExecuted());
    }
    state.counters["sim_cycles_per_sec"] =
        benchmark::Counter(cycles, benchmark::Counter::kIsRate);
    state.counters["events_per_sec"] =
        benchmark::Counter(events, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WorkerIteration16)->Unit(benchmark::kMillisecond);

/** The record of a 16-node WORKER cell (wss 8, H5), run once. */
const RunRecord &
record16()
{
    static const RunRecord rec = [] {
        setQuiet(true);
        ExperimentSpec spec;
        spec.id = "micro/worker16";
        spec.app = "worker";
        spec.params = {{"wss", "8"}, {"iterations", "2"}};
        spec.nodes = 16;
        spec.protocol = ProtocolConfig::hw(5);
        return Runner().execute(spec);
    }();
    return rec;
}

/** A cache hit's load after the file read: checksum and body decode
 *  of a 16-node swex-rec entry. */
void
BM_RecordDecode(benchmark::State &state)
{
    const std::vector<std::uint8_t> raw =
        cache::encodeRecord(record16(), 1, 2);
    for (auto _ : state) {
        RunRecord out;
        std::string err;
        benchmark::DoNotOptimize(
            cache::decodeRecord(raw, "entry", out, 1, 2, err));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(raw.size()));
}
BENCHMARK(BM_RecordDecode)->Unit(benchmark::kMicrosecond);

/** The client's side of a warm hit: the DOM parse of the line the
 *  server sends for a cached 16-node `run` (envelope fields, then the
 *  canonical record). */
void
BM_WireParseRecord(benchmark::State &state)
{
    std::ostringstream os;
    os << R"({"ok":true,"tag":"hit","source":"cache","record":)";
    record16().writeJson(os, /*canonical=*/true);
    os << '}';
    const std::string line = os.str();
    for (auto _ : state) {
        wire::JsonValue doc;
        wire::JsonParser p(line);
        benchmark::DoNotOptimize(p.parseWhole(doc));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(line.size()));
}
BENCHMARK(BM_WireParseRecord)->Unit(benchmark::kMicrosecond);

/** The server's side of every request: the DOM parse of a ~300-byte
 *  `run` request line. */
void
BM_WireParseRequest(benchmark::State &state)
{
    const std::string line =
        R"({"op":"run","tag":"bench-request","canonical":true,)"
        R"("id":"bench/worker16","app":"worker","nodes":16,)"
        R"("protocol":"h5","profile":"c","victim":6,"seed":12345,)"
        R"("params":{"wss":"8","iterations":"2","think":"10"},)"
        R"("audit":true,"jitter":37,"jitter_seed":9,"fault_drop":20,)"
        R"("fault_seed":11,"deadline":123456789,"perfect_ifetch":true})";
    for (auto _ : state) {
        wire::JsonValue doc;
        wire::JsonParser p(line);
        benchmark::DoNotOptimize(p.parseWhole(doc));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(line.size()));
}
BENCHMARK(BM_WireParseRequest)->Unit(benchmark::kMicrosecond);

/**
 * Console output as usual, plus every finished run recorded into the
 * JSON trajectory. Counters reach the reporter already finalized
 * (rates divided by elapsed time), so they can be stored verbatim.
 */
class JsonReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        ConsoleReporter::ReportRuns(runs);
        for (const Run &r : runs) {
            if (r.run_type != Run::RT_Iteration || r.error_occurred)
                continue;
            std::vector<std::pair<std::string, double>> m;
            m.emplace_back("ns_per_op",
                           r.iterations > 0
                               ? r.real_accumulated_time * 1e9 /
                                     static_cast<double>(r.iterations)
                               : 0.0);
            m.emplace_back("iterations",
                           static_cast<double>(r.iterations));
            for (const auto &[name, counter] : r.counters)
                m.emplace_back(name, counter.value);
            traj.record(r.benchmark_name(), std::move(m));
        }
    }

    swex::bench::JsonTrajectory traj;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    JsonReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    reporter.traj.record("micro_substrates",
                         {{"peak_rss_kb",
                           static_cast<double>(
                               swex::bench::peakRssKb())}});
    if (!reporter.traj.updateFile("BENCH_SUBSTRATES.json"))
        std::fprintf(stderr, "warning: could not write bench JSON\n");
    benchmark::Shutdown();
    return 0;
}
