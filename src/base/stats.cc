#include "base/stats.hh"

#include <charconv>
#include <cmath>
#include <ostream>

#include "base/json.hh"
#include "base/logging.hh"

namespace swex::stats
{

namespace
{

void
appendCount(std::string &out, std::uint64_t v)
{
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

} // anonymous namespace

Stat::Stat(Group *parent, std::string name)
    : _name(std::move(name))
{
    if (parent)
        parent->addStat(this);
}

void
Scalar::renderJson(std::string &out) const
{
    json::appendNumber(out, _value);
}

void
Distribution::sample(double v, std::uint64_t count)
{
    if (_count == 0) {
        _min = v;
        _max = v;
    } else {
        if (v < _min)
            _min = v;
        if (v > _max)
            _max = v;
    }
    _count += count;
    _sum += v * count;
    _sumSq += v * v * count;
}

double
Distribution::stddev() const
{
    if (_count < 2)
        return 0.0;
    double m = mean();
    double var = (_sumSq - _count * m * m) / (_count - 1);
    return var > 0 ? std::sqrt(var) : 0.0;
}

void
Distribution::renderJson(std::string &out) const
{
    out += "{\"count\":";
    appendCount(out, _count);
    out += ",\"mean\":";
    json::appendNumber(out, mean());
    out += ",\"min\":";
    json::appendNumber(out, minValue());
    out += ",\"max\":";
    json::appendNumber(out, maxValue());
    out += ",\"stddev\":";
    json::appendNumber(out, stddev());
    out += '}';
}

void
Histogram::init(unsigned nbuckets, double width)
{
    SWEX_ASSERT(nbuckets > 0 && width > 0,
                "histogram %s: bad geometry", name().c_str());
    _buckets.assign(nbuckets, 0);
    _width = width;
    _total = 0;
}

void
Histogram::sample(double v, std::uint64_t count)
{
    SWEX_ASSERT(!_buckets.empty(), "histogram %s: not initialized",
                name().c_str());
    auto idx = static_cast<std::size_t>(v / _width);
    if (idx >= _buckets.size())
        idx = _buckets.size() - 1;
    _buckets[idx] += count;
    _total += count;
}

void
Histogram::renderJson(std::string &out) const
{
    out += "{\"total\":";
    appendCount(out, _total);
    out += ",\"width\":";
    json::appendNumber(out, _width);
    out += ",\"buckets\":[";
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        if (i)
            out += ',';
        appendCount(out, _buckets[i]);
    }
    out += "]}";
}

Group::Group(Group *parent, std::string name)
    : _name(std::move(name))
{
    if (parent)
        parent->addChild(this);
}

void
Group::renderJson(std::string &out) const
{
    out += '{';
    bool first = true;
    for (const auto *s : _stats) {
        if (!first)
            out += ',';
        first = false;
        json::appendString(out, s->name());
        out += ':';
        s->renderJson(out);
    }
    for (const auto *c : _children) {
        if (!first)
            out += ',';
        first = false;
        json::appendString(out, c->name());
        out += ':';
        c->renderJson(out);
    }
    out += '}';
}

void
Group::dumpJson(std::ostream &os) const
{
    std::string out;
    renderJson(out);
    os << out;
}

const Stat *
Group::find(const std::string &path) const
{
    auto dot = path.find('.');
    if (dot == std::string::npos) {
        for (const auto *s : _stats)
            if (s->name() == path)
                return s;
        return nullptr;
    }
    std::string head = path.substr(0, dot);
    std::string tail = path.substr(dot + 1);
    for (const auto *c : _children)
        if (c->name() == head)
            return c->find(tail);
    return nullptr;
}

} // namespace swex::stats
