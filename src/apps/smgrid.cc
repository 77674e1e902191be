#include "apps/smgrid.hh"

#include <algorithm>
#include <cmath>

namespace swex
{

SmgridApp::SmgridApp(const SmgridConfig &config)
    : cfg(config), sizes(levelSizes(config))
{
    SWEX_ASSERT(cfg.fineSize >= 5 && (cfg.fineSize - 1) % 2 == 0,
                "fineSize must be 2^k + 1");
}

std::vector<int>
SmgridApp::levelSizes(const SmgridConfig &c)
{
    std::vector<int> out;
    int s = c.fineSize;
    for (int l = 0; l < c.levels; ++l) {
        out.push_back(s);
        if ((s - 1) % 2 != 0 || s < 5)
            break;
        s = (s - 1) / 2 + 1;
    }
    return out;
}

std::uint64_t
SmgridApp::setupBlocks(const SmgridConfig &c, int machine_nodes)
{
    // As setup() allocates: three grids per level, the residual
    // slots, and the residual word.
    std::uint64_t blocks =
        SharedArray::nodeBlocks(
            static_cast<std::uint64_t>(machine_nodes) * wordsPerBlock,
            Layout::Blocked, machine_nodes) +
        1;
    for (int n : levelSizes(c)) {
        const auto side = static_cast<std::uint64_t>(n);
        blocks += 3 * SharedArray::nodeBlocks(side * side,
                                              Layout::Blocked,
                                              machine_nodes);
    }
    return blocks;
}

Addr
SmgridApp::uAt(int level, int i, int j) const
{
    int n = sizes[static_cast<std::size_t>(level)];
    return uArr[static_cast<std::size_t>(level)].at(
        static_cast<std::size_t>(i) * n + j);
}

Addr
SmgridApp::fAt(int level, int i, int j) const
{
    int n = sizes[static_cast<std::size_t>(level)];
    return fArr[static_cast<std::size_t>(level)].at(
        static_cast<std::size_t>(i) * n + j);
}

Addr
SmgridApp::tAt(int level, int i, int j) const
{
    int n = sizes[static_cast<std::size_t>(level)];
    return tArr[static_cast<std::size_t>(level)].at(
        static_cast<std::size_t>(i) * n + j);
}

std::pair<int, int>
SmgridApp::rowRange(int level, int tid, int nthreads) const
{
    int interior = sizes[static_cast<std::size_t>(level)] - 2;
    int per = (interior + nthreads - 1) / nthreads;
    int lo = 1 + tid * per;
    int hi = std::min(lo + per, 1 + interior);
    if (lo >= 1 + interior)
        return {1, 1};   // no rows at this (coarse) level
    return {lo, hi};
}

void
SmgridApp::setup(Machine &m)
{
    auto nlevels = sizes.size();
    uArr.clear();
    fArr.clear();
    tArr.clear();
    for (std::size_t l = 0; l < nlevels; ++l) {
        auto n = static_cast<std::size_t>(sizes[l]);
        uArr.emplace_back(m, n * n, Layout::Blocked);
        fArr.emplace_back(m, n * n, Layout::Blocked);
        tArr.emplace_back(m, n * n, Layout::Blocked);
        uArr.back().fill(m, d2w(0.0));
        tArr.back().fill(m, d2w(0.0));
        // Right-hand side: f = 1 in the interior of the fine grid,
        // zero elsewhere (coarse f holds restricted residuals).
        for (std::size_t i = 0; i < n * n; ++i)
            m.debugWrite(fArr.back().at(i), d2w(0.0));
        if (l == 0) {
            for (int i = 1; i < sizes[0] - 1; ++i)
                for (int j = 1; j < sizes[0] - 1; ++j)
                    m.debugWrite(fAt(0, i, j), d2w(1.0));
        }
    }

    resSlots = SharedArray(
        m, static_cast<std::size_t>(m.numNodes()) * wordsPerBlock,
        Layout::Blocked);
    resSlots.fill(m, d2w(0.0));
    resAddr = m.allocOn(0, blockBytes, blockBytes);
    m.debugWrite(resAddr, d2w(0.0));

    // With u = 0, the fine-grid residual is exactly f.
    int interior = (sizes[0] - 2) * (sizes[0] - 2);
    initialResidual = static_cast<double>(interior);
}

Task<void>
SmgridApp::relaxSweeps(Mem &m, int level, int tid, int nthreads)
{
    int n = sizes[static_cast<std::size_t>(level)];
    double h = 1.0 / (n - 1);
    double h2 = h * h;
    auto [lo, hi] = rowRange(level, tid, nthreads);

    for (int sweep = 0; sweep < cfg.sweeps; ++sweep) {
        bool forward = (sweep % 2) == 0;
        for (int i = lo; i < hi; ++i) {
            for (int j = 1; j < n - 1; ++j) {
                Addr srcN = forward ? uAt(level, i - 1, j)
                                    : tAt(level, i - 1, j);
                Addr srcS = forward ? uAt(level, i + 1, j)
                                    : tAt(level, i + 1, j);
                Addr srcW = forward ? uAt(level, i, j - 1)
                                    : tAt(level, i, j - 1);
                Addr srcE = forward ? uAt(level, i, j + 1)
                                    : tAt(level, i, j + 1);
                Addr dst = forward ? tAt(level, i, j)
                                   : uAt(level, i, j);
                double vn = w2d(co_await m.read(srcN));
                double vs = w2d(co_await m.read(srcS));
                double vw = w2d(co_await m.read(srcW));
                double ve = w2d(co_await m.read(srcE));
                double fv = w2d(co_await m.read(fAt(level, i, j)));
                double nv = 0.25 * (vn + vs + vw + ve + h2 * fv);
                co_await m.work(cfg.pointWork);
                co_await m.write(dst, d2w(nv));
            }
        }
        co_await m.hwBarrier();
    }
}

Task<void>
SmgridApp::restrictResidual(Mem &m, int level, int tid, int nthreads)
{
    // Compute the residual of level `level` at coarse points and
    // inject it into f[level+1]; zero u[level+1].
    int nc = sizes[static_cast<std::size_t>(level) + 1];
    int n = sizes[static_cast<std::size_t>(level)];
    double h = 1.0 / (n - 1);
    double h2 = h * h;
    auto [lo, hi] = rowRange(level + 1, tid, nthreads);

    for (int ci = lo; ci < hi; ++ci) {
        for (int cj = 1; cj < nc - 1; ++cj) {
            int i = 2 * ci, j = 2 * cj;
            double uc = w2d(co_await m.read(uAt(level, i, j)));
            double vn = w2d(co_await m.read(uAt(level, i - 1, j)));
            double vs = w2d(co_await m.read(uAt(level, i + 1, j)));
            double vw = w2d(co_await m.read(uAt(level, i, j - 1)));
            double ve = w2d(co_await m.read(uAt(level, i, j + 1)));
            double fv = w2d(co_await m.read(fAt(level, i, j)));
            double res =
                fv + (vn + vs + vw + ve - 4.0 * uc) / h2;
            co_await m.work(cfg.pointWork);
            co_await m.write(fAt(level + 1, ci, cj), d2w(res));
            co_await m.write(uAt(level + 1, ci, cj), d2w(0.0));
            co_await m.write(tAt(level + 1, ci, cj), d2w(0.0));
        }
    }
    co_await m.hwBarrier();
}

Task<void>
SmgridApp::interpolateAdd(Mem &m, int level, int tid, int nthreads)
{
    // Add the bilinear interpolation of the coarse correction
    // u[level+1] into u[level]. Partition by fine rows.
    int n = sizes[static_cast<std::size_t>(level)];
    int nc = sizes[static_cast<std::size_t>(level) + 1];
    auto [lo, hi] = rowRange(level, tid, nthreads);

    for (int i = lo; i < hi; ++i) {
        for (int j = 1; j < n - 1; ++j) {
            int ci = i / 2, cj = j / 2;
            double corr;
            if (i % 2 == 0 && j % 2 == 0) {
                corr = w2d(co_await m.read(uAt(level + 1, ci, cj)));
            } else if (i % 2 == 0) {
                double a =
                    w2d(co_await m.read(uAt(level + 1, ci, cj)));
                double b = (cj + 1 <= nc - 1)
                    ? w2d(co_await m.read(uAt(level + 1, ci, cj + 1)))
                    : 0.0;
                corr = 0.5 * (a + b);
            } else if (j % 2 == 0) {
                double a =
                    w2d(co_await m.read(uAt(level + 1, ci, cj)));
                double b = (ci + 1 <= nc - 1)
                    ? w2d(co_await m.read(uAt(level + 1, ci + 1, cj)))
                    : 0.0;
                corr = 0.5 * (a + b);
            } else {
                double a =
                    w2d(co_await m.read(uAt(level + 1, ci, cj)));
                double b = (cj + 1 <= nc - 1)
                    ? w2d(co_await m.read(uAt(level + 1, ci, cj + 1)))
                    : 0.0;
                double c = (ci + 1 <= nc - 1)
                    ? w2d(co_await m.read(uAt(level + 1, ci + 1, cj)))
                    : 0.0;
                double d = (ci + 1 <= nc - 1 && cj + 1 <= nc - 1)
                    ? w2d(co_await m.read(
                          uAt(level + 1, ci + 1, cj + 1)))
                    : 0.0;
                corr = 0.25 * (a + b + c + d);
            }
            double uv = w2d(co_await m.read(uAt(level, i, j)));
            co_await m.work(cfg.pointWork);
            co_await m.write(uAt(level, i, j), d2w(uv + corr));
            co_await m.write(tAt(level, i, j), d2w(uv + corr));
        }
    }
    co_await m.hwBarrier();
}

Task<void>
SmgridApp::kernel(Mem &m, int tid, int nthreads)
{
    int deepest = static_cast<int>(sizes.size()) - 1;

    for (int vc = 0; vc < cfg.vcycles; ++vc) {
        // Downstroke: relax then restrict at each level.
        for (int l = 0; l < deepest; ++l) {
            co_await relaxSweeps(m, l, tid, nthreads);
            co_await restrictResidual(m, l, tid, nthreads);
        }
        co_await relaxSweeps(m, deepest, tid, nthreads);
        // Upstroke: interpolate correction and relax.
        for (int l = deepest - 1; l >= 0; --l) {
            co_await interpolateAdd(m, l, tid, nthreads);
            co_await relaxSweeps(m, l, tid, nthreads);
        }
    }

    // Residual reduction: each thread publishes its local sum of
    // squared residuals into a private block; thread 0 combines them
    // in tid order (so the float summation order is fixed).
    int n = sizes[0];
    double h = 1.0 / (n - 1);
    double h2 = h * h;
    auto [lo, hi] = rowRange(0, tid, nthreads);
    double local = 0;
    for (int i = lo; i < hi; ++i) {
        for (int j = 1; j < n - 1; ++j) {
            double uc = w2d(co_await m.read(uAt(0, i, j)));
            double vn = w2d(co_await m.read(uAt(0, i - 1, j)));
            double vs = w2d(co_await m.read(uAt(0, i + 1, j)));
            double vw = w2d(co_await m.read(uAt(0, i, j - 1)));
            double ve = w2d(co_await m.read(uAt(0, i, j + 1)));
            double fv = w2d(co_await m.read(fAt(0, i, j)));
            double r = fv + (vn + vs + vw + ve - 4.0 * uc) / h2;
            local += r * r;
        }
    }
    co_await m.write(resSlots.at(
        static_cast<std::size_t>(tid) * wordsPerBlock), d2w(local));
    co_await m.hwBarrier();
    if (tid == 0) {
        double total = 0;
        for (int t = 0; t < nthreads; ++t) {
            total += w2d(co_await m.read(resSlots.at(
                static_cast<std::size_t>(t) * wordsPerBlock)));
        }
        co_await m.write(resAddr, d2w(total));
    }
}

Task<void>
SmgridApp::thread(Mem &m, int tid)
{
    return kernel(m, tid, m.machine().numNodes());
}

Task<void>
SmgridApp::sequential(Mem &m)
{
    // The identical schedule, solo: every barrier passes trivially.
    return kernel(m, 0, 1);
}

double
SmgridApp::finalResidual(Machine &m) const
{
    return w2d(m.debugRead(resAddr));
}

bool
SmgridApp::verify(Machine &m)
{
    double res = finalResidual(m);
    if (!std::isfinite(res) || res < 0)
        return false;
    // Multigrid must reduce the residual substantially.
    return res < 0.35 * initialResidual;
}

} // namespace swex
