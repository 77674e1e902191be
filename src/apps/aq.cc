#include "apps/aq.hh"

#include <algorithm>
#include <cmath>
#include <vector>

namespace swex
{


double
AqApp::f(double x, double y)
{
    double x2 = x * x;
    double y2 = y * y;
    return x2 * x2 * y2 * y2;
}

bool
AqApp::evalRect(const AqConfig &config, int depth, unsigned ix,
                unsigned iy, double &contribution)
{
    // Rectangle (ix, iy) at this depth covers a (2/2^d) x (2/2^d)
    // square. Compare a one-point estimate with a four-point one; if
    // they disagree by more than the area-scaled tolerance, refine.
    double side = 2.0 / static_cast<double>(1u << depth);
    double x0 = ix * side;
    double y0 = iy * side;
    double area = side * side;

    double coarse = f(x0 + side / 2, y0 + side / 2) * area;
    double q = side / 4;
    double fine = (f(x0 + q, y0 + q) + f(x0 + 3 * q, y0 + q) +
                   f(x0 + q, y0 + 3 * q) +
                   f(x0 + 3 * q, y0 + 3 * q)) *
                  (area / 4);

    bool refine = std::fabs(fine - coarse) > config.tolerance &&
                  depth < config.maxDepth;
    contribution = fine;
    return refine;
}

AqTree
AqApp::walkTree(const AqConfig &config)
{
    AqTree tree;
    struct R { int d; unsigned ix, iy; };
    std::vector<R> stack{{0, 0, 0}};
    while (!stack.empty() && tree.rects <= maxRects) {
        R r = stack.back();
        stack.pop_back();
        ++tree.rects;
        double c = 0;
        if (evalRect(config, r.d, r.ix, r.iy, c)) {
            for (unsigned dy = 0; dy < 2; ++dy)
                for (unsigned dx = 0; dx < 2; ++dx)
                    stack.push_back({r.d + 1, r.ix * 2 + dx,
                                     r.iy * 2 + dy});
        } else {
            tree.sum += c;
        }
    }
    return tree;
}

AqApp::AqApp(const AqConfig &config, const AqTree &tree)
    : cfg(config), _expectedTasks(tree.rects), _expectedSum(tree.sum)
{
    SWEX_ASSERT(tree.rects <= maxRects,
                "AQ refinement tree past %llu rectangles",
                static_cast<unsigned long long>(maxRects));

    // Pre-split the top of the tree into an initial frontier. Leaf
    // rectangles are kept (not expanded) so every contribution is
    // still evaluated by some worker.
    struct R { int d; unsigned ix, iy; };
    std::vector<R> bfs{{0, 0, 0}};
    std::vector<R> leaves;
    std::size_t cursor = 0;
    while (cursor < bfs.size() &&
           bfs.size() - cursor + leaves.size() < 256) {
        R r = bfs[cursor++];
        double c = 0;
        if (evalRect(cfg, r.d, r.ix, r.iy, c)) {
            for (unsigned dy = 0; dy < 2; ++dy)
                for (unsigned dx = 0; dx < 2; ++dx)
                    bfs.push_back({r.d + 1, r.ix * 2 + dx,
                                   r.iy * 2 + dy});
        } else {
            leaves.push_back(r);
        }
    }
    for (std::size_t i = cursor; i < bfs.size(); ++i)
        frontier.push_back(packRect(bfs[i].d, bfs[i].ix, bfs[i].iy));
    for (const R &r : leaves)
        frontier.push_back(packRect(r.d, r.ix, r.iy));
}

void
AqApp::setup(Machine &m)
{
    sched = StealScheduler::create(m, 8192);
    sumLock = SpinLock::create(m, 0);
    sumAddr = m.allocOn(0, blockBytes, blockBytes);
    m.debugWrite(sumAddr, d2w(0.0));
    sched.debugSeed(m, frontier);
}

Task<void>
AqApp::thread(Mem &m, int tid)
{
    (void)tid;
    double local_sum = 0;
    StealScheduler::Worker w(m.id());
    Word item = 0;
    while (co_await sched.next(m, w, item)) {
        int depth = static_cast<int>(item & 0xff);
        auto ix = static_cast<unsigned>((item >> 8) & 0xffffff);
        auto iy = static_cast<unsigned>((item >> 32) & 0xffffff);

        co_await m.work(cfg.evalWork);
        double c = 0;
        if (evalRect(cfg, depth, ix, iy, c)) {
            for (unsigned dy = 0; dy < 2; ++dy)
                for (unsigned dx = 0; dx < 2; ++dx)
                    co_await sched.add(m, w,
                                       packRect(depth + 1, ix * 2 + dx,
                                                iy * 2 + dy));
        } else {
            local_sum += c;
        }
    }

    // Fold the local partial sum into the shared total.
    co_await sumLock.acquire(m);
    double total = w2d(co_await m.read(sumAddr));
    co_await m.write(sumAddr, d2w(total + local_sum));
    co_await sumLock.release(m);
}

Task<void>
AqApp::sequential(Mem &m)
{
    double sum = 0;
    struct R { int d; unsigned ix, iy; };
    std::vector<R> stack{{0, 0, 0}};
    while (!stack.empty()) {
        R r = stack.back();
        stack.pop_back();
        co_await m.work(cfg.evalWork);
        double c = 0;
        if (evalRect(cfg, r.d, r.ix, r.iy, c)) {
            for (unsigned dy = 0; dy < 2; ++dy)
                for (unsigned dx = 0; dx < 2; ++dx)
                    stack.push_back({r.d + 1, r.ix * 2 + dx,
                                     r.iy * 2 + dy});
        } else {
            sum += c;
        }
    }
    co_await m.write(sumAddr, d2w(sum));
}

bool
AqApp::verify(Machine &m)
{
    double got = w2d(m.debugRead(sumAddr));
    // The refinement tree is deterministic; only the accumulation
    // order varies, so the sum matches to floating-point noise. It
    // must also be close to the closed-form integral 40.96.
    if (std::fabs(got - _expectedSum) > 1e-9 * (1 + _expectedSum))
        return false;
    return std::fabs(got - exactIntegral()) <
           0.05 * exactIntegral();
}

} // namespace swex
