#include "exp/wire_json.hh"

#include <cstring>

#include "base/json.hh"

namespace swex
{
namespace wire
{

void
JsonParser::ws()
{
    while (cur < end && (*cur == ' ' || *cur == '\t' ||
                         *cur == '\r' || *cur == '\n'))
        ++cur;
}

bool
JsonParser::fail(const std::string &why)
{
    if (err.empty())
        err = why;
    return false;
}

bool
JsonParser::literal(const char *word)
{
    std::size_t n = std::strlen(word);
    if (static_cast<std::size_t>(end - cur) < n ||
        std::strncmp(cur, word, n) != 0)
        return fail(std::string("expected '") + word + "'");
    cur += n;
    return true;
}

bool
JsonParser::string(std::string &out)
{
    if (cur >= end || *cur != '"')
        return fail("expected string");
    ++cur;
    out.clear();
    for (;;) {
        // Append the plain bytes up to the next quote or backslash in
        // one run.
        const char *run = cur;
        while (cur < end && *cur != '"' && *cur != '\\')
            ++cur;
        out.append(run, static_cast<std::size_t>(cur - run));
        if (cur >= end)
            return fail("unterminated string");
        if (*cur++ == '"')
            return true;
        if (cur >= end)
            return fail("dangling escape");
        char e = *cur++;
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (end - cur < 4)
                return fail("truncated \\u escape");
            unsigned v = 0;
            for (int i = 0; i < 4; ++i) {
                char h = *cur++;
                v <<= 4;
                if (h >= '0' && h <= '9') v |= unsigned(h - '0');
                else if (h >= 'a' && h <= 'f')
                    v |= unsigned(h - 'a' + 10);
                else if (h >= 'A' && h <= 'F')
                    v |= unsigned(h - 'A' + 10);
                else
                    return fail("bad \\u escape");
            }
            // The request surface is ASCII identifiers; encode
            // anything else as UTF-8 so round-trips stay lossless.
            if (v < 0x80) {
                out.push_back(static_cast<char>(v));
            } else if (v < 0x800) {
                out.push_back(static_cast<char>(0xC0 | (v >> 6)));
                out.push_back(static_cast<char>(0x80 | (v & 0x3F)));
            } else {
                out.push_back(static_cast<char>(0xE0 | (v >> 12)));
                out.push_back(static_cast<char>(
                    0x80 | ((v >> 6) & 0x3F)));
                out.push_back(static_cast<char>(0x80 | (v & 0x3F)));
            }
            break;
          }
          default:
            return fail("unknown escape");
        }
    }
}

/**
 * One pass over the input before the parse: for each '{' and '[' the
 * parser can reach (nesting at most maxDepth), in the order they
 * open, the number of values it holds (one more than its own commas).
 * The parse reserves each container's vector once from these counts,
 * so it builds every value in its final slot and never moves one
 * through a vector's regrowth. On malformed input a count can be
 * wrong; it only sizes a reservation, never exceeds the input's
 * length, and the parse still rejects the input.
 */
void
JsonParser::countValues()
{
    std::size_t open[maxDepth + 1] = {};   // counts index, per level
    std::size_t depth = 0;
    for (const char *p = cur; p < end; ++p) {
        switch (*p) {
          case '"':
            // To the closing quote: the next one not escaped by an odd
            // run of backslashes.
            for (;;) {
                const auto *q = static_cast<const char *>(std::memchr(
                    p + 1, '"', static_cast<std::size_t>(end - p - 1)));
                if (q == nullptr)
                    return;
                const char *b = q;
                while (b > p + 1 && b[-1] == '\\')
                    --b;
                p = q;
                if ((q - b) % 2 == 0)
                    break;
            }
            break;
          case '{':
          case '[':
            if (depth <= maxDepth) {
                open[depth] = counts.size();
                counts.push_back(1);
            }
            ++depth;
            break;
          case ',':
            if (depth > 0 && depth <= maxDepth + 1)
                ++counts[open[depth - 1]];
            break;
          case '}':
          case ']':
            if (depth > 0)
                --depth;
            break;
          default:
            break;
        }
    }
}

std::size_t
JsonParser::takeCount()
{
    return nextCount < counts.size() ? counts[nextCount++] : 0;
}

bool
JsonParser::value(JsonValue &out)
{
    // Reset the output: callers reuse one JsonValue across lines,
    // and stale members would masquerade as duplicate keys. Nested
    // values are parsed into fresh slots, so only the root needs it.
    out.kind = JsonValue::Kind::Null;
    out.boolean = false;
    out.raw.clear();
    out.members.clear();
    out.items.clear();
    counts.clear();
    nextCount = 0;
    countValues();
    return valueAt(out, 0);
}

bool
JsonParser::valueAt(JsonValue &out, int depth)
{
    // @p out is a default JsonValue: the root after value()'s reset,
    // or a slot just appended to its parent, which this fills in place.
    if (depth > maxDepth)
        return fail("nesting deeper than " +
                    std::to_string(maxDepth) + " levels");
    ws();
    if (cur >= end)
        return fail("unexpected end of input");
    char c = *cur;
    if (c == '"') {
        out.kind = JsonValue::Kind::String;
        return string(out.raw);
    }
    if (c == '{') {
        ++cur;
        out.kind = JsonValue::Kind::Object;
        const std::size_t n = takeCount();
        ws();
        if (cur < end && *cur == '}') { ++cur; return true; }
        out.members.reserve(n);
        for (;;) {
            ws();
            auto &[key, v] = out.members.emplace_back();
            if (!string(key))
                return false;
            ws();
            if (cur >= end || *cur != ':')
                return fail("expected ':'");
            ++cur;
            if (!valueAt(v, depth + 1))
                return false;
            for (std::size_t i = 0; i + 1 < out.members.size(); ++i)
                if (out.members[i].first == key)
                    return fail("duplicate key '" + key + "'");
            ws();
            if (cur < end && *cur == ',') { ++cur; continue; }
            if (cur < end && *cur == '}') { ++cur; return true; }
            return fail("expected ',' or '}'");
        }
    }
    if (c == '[') {
        ++cur;
        out.kind = JsonValue::Kind::Array;
        const std::size_t n = takeCount();
        ws();
        if (cur < end && *cur == ']') { ++cur; return true; }
        out.items.reserve(n);
        for (;;) {
            if (!valueAt(out.items.emplace_back(), depth + 1))
                return false;
            ws();
            if (cur < end && *cur == ',') { ++cur; continue; }
            if (cur < end && *cur == ']') { ++cur; return true; }
            return fail("expected ',' or ']'");
        }
    }
    if (c == 't') { out.kind = JsonValue::Kind::Bool;
                    out.boolean = true; return literal("true"); }
    if (c == 'f') { out.kind = JsonValue::Kind::Bool;
                    out.boolean = false; return literal("false"); }
    if (c == 'n') { out.kind = JsonValue::Kind::Null;
                    return literal("null"); }
    if (c == '-' || (c >= '0' && c <= '9')) {
        out.kind = JsonValue::Kind::Number;
        const char *start = cur;
        if (*cur == '-')
            ++cur;
        while (cur < end &&
               ((*cur >= '0' && *cur <= '9') || *cur == '.' ||
                *cur == 'e' || *cur == 'E' || *cur == '+' ||
                *cur == '-'))
            ++cur;
        out.raw.assign(start, static_cast<std::size_t>(cur - start));
        return true;
    }
    return fail("unexpected character");
}

bool
JsonParser::parseWhole(JsonValue &out)
{
    if (!value(out))
        return false;
    ws();
    if (cur != end)
        return fail("trailing characters after JSON value");
    return true;
}

namespace
{

/** renderJson with the same nesting bound as the parser. Parsed
 *  values never exceed it (the parser rejects them first), so the
 *  cutoff only fires for hand-built values; rendering "null" there
 *  keeps the output valid JSON instead of recursing without bound. */
void
renderJsonAt(const JsonValue &v, std::string &out, int depth)
{
    if (depth > JsonParser::maxDepth) {
        out += "null";
        return;
    }
    switch (v.kind) {
      case JsonValue::Kind::Null:
        out += "null";
        break;
      case JsonValue::Kind::Bool:
        out += v.boolean ? "true" : "false";
        break;
      case JsonValue::Kind::Number:
        out += v.raw;
        break;
      case JsonValue::Kind::String:
        json::appendString(out, v.raw);
        break;
      case JsonValue::Kind::Object: {
        out += "{";
        bool first = true;
        for (const auto &[k, m] : v.members) {
            if (!first)
                out += ",";
            first = false;
            json::appendString(out, k);
            out += ":";
            renderJsonAt(m, out, depth + 1);
        }
        out += "}";
        break;
      }
      case JsonValue::Kind::Array: {
        out += "[";
        bool first = true;
        for (const JsonValue &i : v.items) {
            if (!first)
                out += ",";
            first = false;
            renderJsonAt(i, out, depth + 1);
        }
        out += "]";
        break;
      }
    }
}

} // anonymous namespace

void
renderJson(const JsonValue &v, std::string &out)
{
    renderJsonAt(v, out, 0);
}

bool
numberAsU64(const JsonValue &v, std::uint64_t &out)
{
    return v.kind == JsonValue::Kind::Number && json::parseU64(v.raw, out);
}

} // namespace wire
} // namespace swex
