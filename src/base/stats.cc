#include "base/stats.hh"

#include <charconv>
#include <cmath>
#include <iterator>
#include <ostream>

#include "base/json.hh"
#include "base/logging.hh"

namespace swex::stats
{

namespace
{

/** Text numbers: what a default std::ostream prints ("%g"). */
void
textNumber(std::string &out, double v)
{
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), v,
                             std::chars_format::general, 6);
    out.append(buf, res.ptr);
}

void
appendCount(std::string &out, std::uint64_t v)
{
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

} // anonymous namespace

Stat::Stat(Group *parent, std::string name, std::string desc)
    : _name(std::move(name)), _desc(std::move(desc))
{
    if (parent)
        parent->addStat(this);
}

void
Scalar::renderText(std::string &out, const std::string &prefix) const
{
    out += prefix;
    out += name();
    out += ' ';
    textNumber(out, _value);
    out += " # ";
    out += desc();
    out += '\n';
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
Distribution::renderText(std::string &out, const std::string &prefix) const
{
    const char *fields[] = {"::mean ", "::min ", "::max ", "::stddev "};
    const double values[] = {mean(), minValue(), maxValue(), stddev()};
    out += prefix;
    out += name();
    out += "::count ";
    appendCount(out, _count);
    out += " # ";
    out += desc();
    out += '\n';
    for (std::size_t i = 0; i < std::size(fields); ++i) {
        out += prefix;
        out += name();
        out += fields[i];
        textNumber(out, values[i]);
        out += '\n';
    }
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
Distribution::reset()
{
    _count = 0;
    _sum = 0;
    _sumSq = 0;
    _min = 0;
    _max = 0;
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
Histogram::renderText(std::string &out, const std::string &prefix) const
{
    out += prefix;
    out += name();
    out += "::total ";
    appendCount(out, _total);
    out += " # ";
    out += desc();
    out += '\n';
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        if (_buckets[i] == 0)
            continue;
        out += prefix;
        out += name();
        out += "::bucket";
        appendCount(out, i);
        out += ' ';
        appendCount(out, _buckets[i]);
        out += '\n';
    }
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

void
Histogram::reset()
{
    for (auto &b : _buckets)
        b = 0;
    _total = 0;
}

Group::Group(Group *parent, std::string name)
    : _name(std::move(name))
{
    if (parent)
        parent->addChild(this);
}

void
Group::renderText(std::string &out, const std::string &prefix) const
{
    std::string here = _name.empty() ? prefix : prefix + _name + ".";
    for (const auto *s : _stats)
        s->renderText(out, here);
    for (const auto *c : _children)
        c->renderText(out, here);
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
Group::dump(std::ostream &os, const std::string &prefix) const
{
    std::string out;
    renderText(out, prefix);
    os << out;
}

void
Group::dumpJson(std::ostream &os) const
{
    std::string out;
    renderJson(out);
    os << out;
}

void
Group::reset()
{
    for (auto *s : _stats)
        s->reset();
    for (auto *c : _children)
        c->reset();
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
