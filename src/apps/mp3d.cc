#include "apps/mp3d.hh"

#include <vector>

#include "base/rng.hh"

namespace swex
{

Mp3dApp::Mp3dApp(const Mp3dConfig &config) : cfg(config)
{
    numCells = cfg.cellsX * cfg.cellsY * cfg.cellsZ;
    axisX = static_cast<std::uint64_t>(cfg.cellsX) << fpBits;
    axisY = static_cast<std::uint64_t>(cfg.cellsY) << fpBits;
    axisZ = static_cast<std::uint64_t>(cfg.cellsZ) << fpBits;
    computeGroundTruth();
}

Mp3dApp::P
Mp3dApp::initialParticle(int idx) const
{
    Rng rng(cfg.seed + static_cast<std::uint64_t>(idx) * 1000003);
    P p;
    p.x = rng.below(axisX);
    p.y = rng.below(axisY);
    p.z = rng.below(axisZ);
    // Velocities in [-2^16, 2^16) fixed-point units per step.
    p.vx = rng.below(1u << 17) - (1u << 16);
    p.vy = rng.below(1u << 17) - (1u << 16);
    p.vz = rng.below(1u << 17) - (1u << 16);
    return p;
}

int
Mp3dApp::cellOf(const P &p) const
{
    int cx = static_cast<int>(p.x >> fpBits);
    int cy = static_cast<int>(p.y >> fpBits);
    int cz = static_cast<int>(p.z >> fpBits);
    return (cz * cfg.cellsY + cy) * cfg.cellsX + cx;
}

void
Mp3dApp::moveParticle(P &p, std::uint32_t prev_cell_count,
                      int step_parity) const
{
    // Collision model: in a crowded cell, deflect deterministically
    // (a velocity component rotation keyed on occupancy parity).
    if (prev_cell_count > 2) {
        std::uint64_t t = p.vx;
        if (((prev_cell_count + step_parity) & 1) == 0) {
            p.vx = p.vy;
            p.vy = t;
        } else {
            p.vx = p.vz;
            p.vz = t;
        }
    }
    p.x = (p.x + p.vx) % axisX;
    p.y = (p.y + p.vy) % axisY;
    p.z = (p.z + p.vz) % axisZ;
}

void
Mp3dApp::hostStep(std::vector<P> &ps,
                  const std::vector<std::uint32_t> &prev_counts,
                  std::vector<std::uint32_t> &new_counts) const
{
    for (std::size_t i = 0; i < ps.size(); ++i) {
        int c = cellOf(ps[i]);
        moveParticle(ps[i], prev_counts[static_cast<std::size_t>(c)],
                     static_cast<int>(i) & 1);
        ++new_counts[static_cast<std::size_t>(cellOf(ps[i]))];
    }
}

void
Mp3dApp::computeGroundTruth()
{
    std::vector<P> ps;
    ps.reserve(static_cast<std::size_t>(cfg.particles));
    for (int i = 0; i < cfg.particles; ++i)
        ps.push_back(initialParticle(i));

    std::vector<std::uint32_t> prev(
        static_cast<std::size_t>(numCells), 0);
    std::vector<std::uint32_t> cur(
        static_cast<std::size_t>(numCells), 0);
    for (const auto &p : ps)
        ++prev[static_cast<std::size_t>(cellOf(p))];

    for (int s = 0; s < cfg.steps; ++s) {
        std::fill(cur.begin(), cur.end(), 0);
        hostStep(ps, prev, cur);
        std::swap(prev, cur);
    }

    _checksum = 0;
    for (const auto &p : ps)
        _checksum += p.x * 3 + p.y * 5 + p.z * 7;
}

std::uint64_t
Mp3dApp::setupBlocks(const Mp3dConfig &c, int machine_nodes)
{
    // As setup() allocates: the particles, both cell buffers, and the
    // tree barrier.
    const std::uint64_t cells = static_cast<std::uint64_t>(c.cellsX) *
                                c.cellsY * c.cellsZ;
    return SharedArray::nodeBlocks(
               static_cast<std::uint64_t>(c.particles) * 6,
               Layout::Blocked, machine_nodes) +
           2 * SharedArray::nodeBlocks(cells, Layout::Interleaved,
                                       machine_nodes) +
           TreeBarrier::nodeBlocks(machine_nodes, machine_nodes);
}

void
Mp3dApp::setup(Machine &m)
{
    particles = SharedArray(
        m, static_cast<std::size_t>(cfg.particles) * 6,
        Layout::Blocked);
    cellsA = SharedArray(m, static_cast<std::size_t>(numCells),
                         Layout::Interleaved);
    cellsB = SharedArray(m, static_cast<std::size_t>(numCells),
                         Layout::Interleaved);
    cellsA.fill(m, 0);
    cellsB.fill(m, 0);

    for (int i = 0; i < cfg.particles; ++i) {
        P p = initialParticle(i);
        auto base = static_cast<std::size_t>(i) * 6;
        m.debugWrite(particles.at(base + 0), p.x);
        m.debugWrite(particles.at(base + 1), p.y);
        m.debugWrite(particles.at(base + 2), p.z);
        m.debugWrite(particles.at(base + 3), p.vx);
        m.debugWrite(particles.at(base + 4), p.vy);
        m.debugWrite(particles.at(base + 5), p.vz);
        // Initial occupancy goes to the "A" buffer.
        std::size_t c = static_cast<std::size_t>(cellOf(p));
        m.debugWrite(cellsA.at(c), m.debugRead(cellsA.at(c)) + 1);
    }

    barProto = TreeBarrier::create(m, m.numNodes());
}

Task<void>
Mp3dApp::thread(Mem &m, int tid)
{
    return kernel(m, tid, m.machine().numNodes(), true);
}

Task<void>
Mp3dApp::sequential(Mem &m)
{
    return kernel(m, 0, 1, false);
}

Task<void>
Mp3dApp::kernel(Mem &m, int tid, int nthreads, bool sync)
{
    TreeBarrier bar = barProto;
    int per = (cfg.particles + nthreads - 1) / nthreads;
    int lo = tid * per;
    int hi = std::min(lo + per, cfg.particles);
    int cells_per = (numCells + nthreads - 1) / nthreads;
    int clo = tid * cells_per;
    int chi = std::min(clo + cells_per, numCells);

    for (int step = 0; step < cfg.steps; ++step) {
        const SharedArray &prev = (step % 2 == 0) ? cellsA : cellsB;
        const SharedArray &cur = (step % 2 == 0) ? cellsB : cellsA;

        // Zero this thread's slice of the current-count buffer.
        for (int c = clo; c < chi; ++c)
            co_await m.write(cur.at(static_cast<std::size_t>(c)), 0);
        if (sync)
            co_await bar.wait(m);

        for (int i = lo; i < hi; ++i) {
            auto base = static_cast<std::size_t>(i) * 6;
            P p;
            p.x = co_await m.read(particles.at(base + 0));
            p.y = co_await m.read(particles.at(base + 1));
            p.z = co_await m.read(particles.at(base + 2));
            p.vx = co_await m.read(particles.at(base + 3));
            p.vy = co_await m.read(particles.at(base + 4));
            p.vz = co_await m.read(particles.at(base + 5));

            auto occ = static_cast<std::uint32_t>(co_await m.read(
                prev.at(static_cast<std::size_t>(cellOf(p)))));
            co_await m.work(cfg.moveWork);
            moveParticle(p, occ, i & 1);

            co_await m.write(particles.at(base + 0), p.x);
            co_await m.write(particles.at(base + 1), p.y);
            co_await m.write(particles.at(base + 2), p.z);
            co_await m.write(particles.at(base + 3), p.vx);
            co_await m.write(particles.at(base + 4), p.vy);
            co_await m.write(particles.at(base + 5), p.vz);
            co_await m.fetchAdd(
                cur.at(static_cast<std::size_t>(cellOf(p))), 1);
        }
        if (sync)
            co_await bar.wait(m);
    }
}

bool
Mp3dApp::verify(Machine &m)
{
    std::uint64_t sum = 0;
    for (int i = 0; i < cfg.particles; ++i) {
        auto base = static_cast<std::size_t>(i) * 6;
        sum += m.debugRead(particles.at(base + 0)) * 3 +
               m.debugRead(particles.at(base + 1)) * 5 +
               m.debugRead(particles.at(base + 2)) * 7;
    }
    return sum == _checksum;
}

} // namespace swex
