#include "apps/water.hh"

#include <algorithm>
#include <array>
#include <vector>

#include "base/rng.hh"

namespace swex
{

namespace
{
constexpr std::int64_t fpOne = 1 << 16;
} // anonymous namespace

WaterApp::WaterApp(const WaterConfig &config) : cfg(config)
{
    computeGroundTruth();
}

WaterApp::M
WaterApp::initialMolecule(int idx) const
{
    Rng rng(cfg.seed + static_cast<std::uint64_t>(idx) * 6151);
    M mol;
    mol.x = static_cast<std::int64_t>(rng.below(64 * fpOne));
    mol.y = static_cast<std::int64_t>(rng.below(64 * fpOne));
    mol.z = static_cast<std::int64_t>(rng.below(64 * fpOne));
    mol.vx = static_cast<std::int64_t>(rng.below(2 * fpOne)) - fpOne;
    mol.vy = static_cast<std::int64_t>(rng.below(2 * fpOne)) - fpOne;
    mol.vz = static_cast<std::int64_t>(rng.below(2 * fpOne)) - fpOne;
    return mol;
}

void
WaterApp::forceOn(std::int64_t xi, std::int64_t yi, std::int64_t zi,
                  std::int64_t xj, std::int64_t yj, std::int64_t zj,
                  std::int64_t &fx, std::int64_t &fy, std::int64_t &fz)
{
    // A softened inverse-square attraction in fixed point. Exact
    // integer math keeps force accumulation order-independent.
    std::int64_t dx = (xj - xi) >> 8;
    std::int64_t dy = (yj - yi) >> 8;
    std::int64_t dz = (zj - zi) >> 8;
    std::int64_t r2 = dx * dx + dy * dy + dz * dz + (1 << 16);
    fx += (dx << 18) / r2;
    fy += (dy << 18) / r2;
    fz += (dz << 18) / r2;
}

void
WaterApp::computeGroundTruth()
{
    int n = cfg.molecules;
    std::vector<M> ms;
    ms.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        ms.push_back(initialMolecule(i));

    for (int step = 0; step < cfg.steps; ++step) {
        std::vector<std::array<std::int64_t, 3>> force(
            static_cast<std::size_t>(n), {0, 0, 0});
        for (std::size_t i = 0; i < ms.size(); ++i) {
            auto &f = force[i];
            for (std::size_t j = 0; j < ms.size(); ++j)
                if (j != i)
                    forceOn(ms[i].x, ms[i].y, ms[i].z, ms[j].x, ms[j].y,
                            ms[j].z, f[0], f[1], f[2]);
        }
        for (int i = 0; i < n; ++i) {
            auto &mol = ms[static_cast<std::size_t>(i)];
            mol.vx += force[static_cast<std::size_t>(i)][0];
            mol.vy += force[static_cast<std::size_t>(i)][1];
            mol.vz += force[static_cast<std::size_t>(i)][2];
            mol.x += mol.vx;
            mol.y += mol.vy;
            mol.z += mol.vz;
        }
    }

    _checksum = 0;
    for (const auto &mol : ms)
        _checksum += static_cast<std::uint64_t>(mol.x) * 3 +
                     static_cast<std::uint64_t>(mol.y) * 5 +
                     static_cast<std::uint64_t>(mol.z) * 7 +
                     static_cast<std::uint64_t>(mol.vx) * 11;
}

std::uint64_t
WaterApp::setupBlocks(const WaterConfig &c, int machine_nodes)
{
    // As setup() allocates: the molecules and the tree barrier.
    return SharedArray::nodeBlocks(
               static_cast<std::uint64_t>(c.molecules) * 6,
               Layout::Blocked, machine_nodes) +
           TreeBarrier::nodeBlocks(machine_nodes, machine_nodes);
}

void
WaterApp::setup(Machine &m)
{
    mols = SharedArray(m,
                       static_cast<std::size_t>(cfg.molecules) * 6,
                       Layout::Blocked);
    for (int i = 0; i < cfg.molecules; ++i) {
        M mol = initialMolecule(i);
        auto base = static_cast<std::size_t>(i) * 6;
        m.debugWrite(mols.at(base + 0),
                     static_cast<Word>(mol.x));
        m.debugWrite(mols.at(base + 1),
                     static_cast<Word>(mol.y));
        m.debugWrite(mols.at(base + 2),
                     static_cast<Word>(mol.z));
        m.debugWrite(mols.at(base + 3),
                     static_cast<Word>(mol.vx));
        m.debugWrite(mols.at(base + 4),
                     static_cast<Word>(mol.vy));
        m.debugWrite(mols.at(base + 5),
                     static_cast<Word>(mol.vz));
    }
    barProto = TreeBarrier::create(m, m.numNodes());
}

Task<void>
WaterApp::thread(Mem &m, int tid)
{
    return kernel(m, tid, m.machine().numNodes(), true);
}

Task<void>
WaterApp::sequential(Mem &m)
{
    return kernel(m, 0, 1, false);
}

Task<void>
WaterApp::kernel(Mem &m, int tid, int nthreads, bool sync)
{
    TreeBarrier bar = barProto;
    int n = cfg.molecules;
    int per = (n + nthreads - 1) / nthreads;
    int lo = tid * per;
    int hi = std::min(lo + per, n);

    for (int step = 0; step < cfg.steps; ++step) {
        // Force phase: read everyone, accumulate locally.
        std::vector<std::array<std::int64_t, 3>> force(
            static_cast<std::size_t>(hi > lo ? hi - lo : 0),
            {0, 0, 0});
        for (int i = lo; i < hi; ++i) {
            auto base = static_cast<std::size_t>(i) * 6;
            auto xi = static_cast<std::int64_t>(
                co_await m.read(mols.at(base + 0)));
            auto yi = static_cast<std::int64_t>(
                co_await m.read(mols.at(base + 1)));
            auto zi = static_cast<std::int64_t>(
                co_await m.read(mols.at(base + 2)));
            for (int j = 0; j < n; ++j) {
                if (j == i)
                    continue;
                auto jb = static_cast<std::size_t>(j) * 6;
                auto xj = static_cast<std::int64_t>(
                    co_await m.read(mols.at(jb + 0)));
                auto yj = static_cast<std::int64_t>(
                    co_await m.read(mols.at(jb + 1)));
                auto zj = static_cast<std::int64_t>(
                    co_await m.read(mols.at(jb + 2)));
                co_await m.work(cfg.pairWork);
                auto &f = force[static_cast<std::size_t>(i - lo)];
                forceOn(xi, yi, zi, xj, yj, zj, f[0], f[1], f[2]);
            }
        }
        if (sync)
            co_await bar.wait(m);

        // Integration phase: update owned molecules.
        for (int i = lo; i < hi; ++i) {
            auto base = static_cast<std::size_t>(i) * 6;
            const auto &f = force[static_cast<std::size_t>(i - lo)];
            auto vx = static_cast<std::int64_t>(
                co_await m.read(mols.at(base + 3))) + f[0];
            auto vy = static_cast<std::int64_t>(
                co_await m.read(mols.at(base + 4))) + f[1];
            auto vz = static_cast<std::int64_t>(
                co_await m.read(mols.at(base + 5))) + f[2];
            auto x = static_cast<std::int64_t>(
                co_await m.read(mols.at(base + 0))) + vx;
            auto y = static_cast<std::int64_t>(
                co_await m.read(mols.at(base + 1))) + vy;
            auto z = static_cast<std::int64_t>(
                co_await m.read(mols.at(base + 2))) + vz;
            co_await m.write(mols.at(base + 0),
                             static_cast<Word>(x));
            co_await m.write(mols.at(base + 1),
                             static_cast<Word>(y));
            co_await m.write(mols.at(base + 2),
                             static_cast<Word>(z));
            co_await m.write(mols.at(base + 3),
                             static_cast<Word>(vx));
            co_await m.write(mols.at(base + 4),
                             static_cast<Word>(vy));
            co_await m.write(mols.at(base + 5),
                             static_cast<Word>(vz));
        }
        if (sync)
            co_await bar.wait(m);
    }
}

bool
WaterApp::verify(Machine &m)
{
    std::uint64_t sum = 0;
    for (int i = 0; i < cfg.molecules; ++i) {
        auto base = static_cast<std::size_t>(i) * 6;
        sum += m.debugRead(mols.at(base + 0)) * 3 +
               m.debugRead(mols.at(base + 1)) * 5 +
               m.debugRead(mols.at(base + 2)) * 7 +
               m.debugRead(mols.at(base + 3)) * 11;
    }
    return sum == _checksum;
}

} // namespace swex
