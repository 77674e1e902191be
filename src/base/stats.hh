/**
 * @file
 * A small statistics package in the spirit of gem5's: named scalar
 * counters, sampled distributions, and histograms, organized into
 * hierarchical groups that render as one JSON tree or are queried by
 * tests and benchmark harnesses.
 *
 * The renderer appends to a std::string. Its bytes are part of every
 * canonical run record and result-cache entry, so numbers print
 * exactly as printf's "%.17g" does (round-trips every double).
 */

#ifndef SWEX_BASE_STATS_HH
#define SWEX_BASE_STATS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace swex::stats
{

class Group;

/** Abstract named statistic registered with a Group. Each stat's
 *  meaning is documented once, on its member declaration. */
class Stat
{
  public:
    Stat(Group *parent, std::string name);
    virtual ~Stat() = default;

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    const std::string &name() const { return _name; }

    /** Append this statistic's value as a JSON value (no key). */
    virtual void renderJson(std::string &out) const = 0;

  private:
    std::string _name;
};

/** A single accumulating scalar value. */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &operator++() { _value += 1; return *this; }
    Scalar &operator+=(double v) { _value += v; return *this; }
    Scalar &operator=(double v) { _value = v; return *this; }

    double value() const { return _value; }

    void renderJson(std::string &out) const override;

  private:
    double _value = 0;
};

/** Mean/min/max/stddev over an arbitrary stream of samples. */
class Distribution : public Stat
{
  public:
    using Stat::Stat;

    void sample(double v, std::uint64_t count = 1);

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double mean() const { return _count ? _sum / _count : 0.0; }
    double minValue() const { return _count ? _min : 0.0; }
    double maxValue() const { return _count ? _max : 0.0; }
    double stddev() const;

    void renderJson(std::string &out) const override;

  private:
    std::uint64_t _count = 0;
    double _sum = 0;
    double _sumSq = 0;
    double _min = 0;
    double _max = 0;
};

/**
 * Linear-bucket histogram over [0, buckets*bucketSize); out-of-range
 * samples clamp to the last bucket. Bucket geometry is set once via
 * init().
 */
class Histogram : public Stat
{
  public:
    using Stat::Stat;

    /** Configure @p nbuckets buckets of width @p width each. */
    void init(unsigned nbuckets, double width);

    void sample(double v, std::uint64_t count = 1);

    std::uint64_t bucketCount(unsigned i) const { return _buckets.at(i); }
    unsigned numBuckets() const { return _buckets.size(); }
    double bucketWidth() const { return _width; }
    std::uint64_t totalCount() const { return _total; }

    void renderJson(std::string &out) const override;

  private:
    std::vector<std::uint64_t> _buckets;
    double _width = 1.0;
    std::uint64_t _total = 0;
};

/**
 * A named collection of statistics and child groups. Components own a
 * Group and register their stats into it; Machine::dumpStats() walks
 * the tree.
 */
class Group
{
  public:
    Group() = default;
    Group(Group *parent, std::string name);

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    void addStat(Stat *stat) { _stats.push_back(stat); }
    void addChild(Group *child) { _children.push_back(child); }

    const std::string &name() const { return _name; }

    /**
     * Append the whole subtree as one JSON object. Keys appear in
     * registration order (deterministic for a given machine
     * configuration), stats before child groups; scalars become
     * numbers, distributions and histograms become objects.
     */
    void renderJson(std::string &out) const;

    /** Write renderJson() to @p os. */
    void dumpJson(std::ostream &os) const;

    /** Find a statistic by dotted path relative to this group. */
    const Stat *find(const std::string &path) const;

  private:
    std::string _name;
    std::vector<Stat *> _stats;
    std::vector<Group *> _children;
};

} // namespace swex::stats

#endif // SWEX_BASE_STATS_HH
