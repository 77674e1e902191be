#include "exp/wire_json.hh"

#include <array>
#include <cstring>
#include <numeric>

#include "base/json.hh"

namespace swex
{
namespace wire
{

JsonValue::JsonValue(const JsonValue &o)
{
    *this = o;
}

JsonValue &
JsonValue::operator=(const JsonValue &o)
{
    // Build the copy first: @p o may live in the document this replaces.
    JsonValue copy;
    if (o.kind == Kind::Object || o.kind == Kind::Array) {
        std::string text;
        renderJson(o, text);
        JsonParser(text).parseWhole(copy);
    } else {
        copy.kind = o.kind;
        copy.boolean = o.boolean;
        copy.raw = o.raw;
    }
    return *this = std::move(copy);
}

JsonValue::JsonValue(JsonValue &&o) noexcept
{
    *this = std::move(o);
}

JsonValue &
JsonValue::operator=(JsonValue &&o) noexcept
{
    if (this == &o)
        return *this;
    kind = o.kind;
    boolean = o.boolean;
    raw = std::move(o.raw);
    _key = o._key;
    _first = o._first;
    _count = o._count;
    _text = std::move(o._text);
    _values = std::move(o._values);
    o.reset();
    return *this;
}

void
JsonValue::reset()
{
    kind = Kind::Null;
    boolean = false;
    raw.clear();
    _key = {};
    _first = nullptr;
    _count = 0;
    _values.reset();
    _text.reset();
}

namespace
{

/** Byte classes the scans test with one table load. */
enum : unsigned char { Structural = 1, NumberByte = 2 };

constexpr auto byteClass = [] {
    std::array<unsigned char, 256> t{};
    for (unsigned char c : {'"', '{', '[', ',', '}', ']'})
        t[c] |= Structural;
    for (unsigned char c : {'-', '+', '.', 'e', 'E'})
        t[c] |= NumberByte;
    for (unsigned char c = '0'; c <= '9'; ++c)
        t[c] |= NumberByte;
    return t;
}();

bool
is(char c, unsigned char cls)
{
    return (byteClass[static_cast<unsigned char>(c)] & cls) != 0;
}

} // anonymous namespace

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

/** The string at cur, its escapes decoded in place: every escape is
 *  at least as long as the bytes it decodes to, so the decoded string
 *  is a prefix of the span it was read from. */
bool
JsonParser::string(std::string_view &out)
{
    if (cur >= end || *cur != '"')
        return fail("expected string");
    char *const start = ++cur;
    char *to = start;   // where the next decoded byte goes
    for (;;) {
        // Move the plain bytes up to the next quote or backslash down
        // to the decoded end in one run (they are there already until
        // the first escape).
        const char *run = cur;
        while (cur < end && *cur != '"' && *cur != '\\')
            ++cur;
        const auto n = static_cast<std::size_t>(cur - run);
        if (to != run)
            std::memmove(to, run, n);
        to += n;
        if (cur >= end)
            return fail("unterminated string");
        if (*cur++ == '"') {
            out = std::string_view(start,
                                   static_cast<std::size_t>(to - start));
            return true;
        }
        if (cur >= end)
            return fail("dangling escape");
        char e = *cur++;
        switch (e) {
          case '"': *to++ = '"'; break;
          case '\\': *to++ = '\\'; break;
          case '/': *to++ = '/'; break;
          case 'n': *to++ = '\n'; break;
          case 't': *to++ = '\t'; break;
          case 'r': *to++ = '\r'; break;
          case 'b': *to++ = '\b'; break;
          case 'f': *to++ = '\f'; break;
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
            // anything else as UTF-8 (at most 3 bytes for the escape's
            // 6) so round-trips stay lossless.
            if (v < 0x80) {
                *to++ = static_cast<char>(v);
            } else if (v < 0x800) {
                *to++ = static_cast<char>(0xC0 | (v >> 6));
                *to++ = static_cast<char>(0x80 | (v & 0x3F));
            } else {
                *to++ = static_cast<char>(0xE0 | (v >> 12));
                *to++ = static_cast<char>(0x80 | ((v >> 6) & 0x3F));
                *to++ = static_cast<char>(0x80 | (v & 0x3F));
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
 * open, the number of values it holds (one more than its own commas,
 * or none when its close follows it). @return their sum, which sizes
 * the document's value array: exactly, for a line that parses. Up to
 * the first byte the parse rejects, this pass and the parse agree on
 * every string's extent and every ',', so a container never holds
 * more values than counted; past it a count can be wrong, and the
 * parse has already failed.
 */
std::size_t
JsonParser::countValues()
{
    // At most one count per '{' or '[' (the two bytes c with
    // c | 0x20 == '{'): reserve them in one step.
    std::size_t opens = 0;
    for (const char *p = cur; p < end; ++p)
        opens += (static_cast<unsigned char>(*p) | 0x20) == '{';
    counts.reserve(opens);
    std::size_t open[maxDepth + 1] = {};   // counts index, per level
    std::size_t depth = 0;
    for (const char *p = cur; p < end; ++p) {
        if (!is(*p, Structural))
            continue;
        switch (*p) {
          case '"':
            // To the closing quote: the next one not escaped by an odd
            // run of backslashes.
            for (;;) {
                const auto *q = static_cast<const char *>(std::memchr(
                    p + 1, '"', static_cast<std::size_t>(end - p - 1)));
                if (q == nullptr)
                    return std::accumulate(counts.begin(), counts.end(),
                                           std::size_t{0});
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
          case ']': {
            if (depth == 0)
                break;
            --depth;
            // Empty when the last byte before the close, whitespace
            // aside, is the matching open.
            const char *b = p;
            while (b > cur && (b[-1] == ' ' || b[-1] == '\t' ||
                               b[-1] == '\r' || b[-1] == '\n'))
                --b;
            if (depth <= maxDepth && b > cur &&
                b[-1] == (*p == '}' ? '{' : '['))
                counts[open[depth]] = 0;
            break;
          }
          default:
            break;
        }
    }
    return std::accumulate(counts.begin(), counts.end(), std::size_t{0});
}

bool
JsonParser::parseWhole(JsonValue &out)
{
    out.reset();
    out._text.reset(new char[line.size()]);
    std::memcpy(out._text.get(), line.data(), line.size());
    cur = out._text.get();
    end = cur + line.size();
    counts.clear();
    nextCount = 0;
    const std::size_t total = countValues();
    if (total > 0)
        out._values.reset(new JsonValue[total]);
    next = out._values.get();
    last = next + total;
    if (!valueAt(out, 0))
        return false;
    ws();
    if (cur != end)
        return fail("trailing characters after JSON value");
    return true;
}

bool
JsonParser::valueAt(JsonValue &out, int depth)
{
    // @p out is a default value: the root after parseWhole()'s reset,
    // or a slot of its parent's run, which this fills in place.
    if (depth > maxDepth)
        return fail("nesting deeper than " +
                    std::to_string(maxDepth) + " levels");
    ws();
    if (cur >= end)
        return fail("unexpected end of input");
    char c = *cur;
    if (c == '"') {
        out.kind = JsonValue::Kind::String;
        std::string_view s;
        if (!string(s))
            return false;
        out.raw.assign(s);
        return true;
    }
    if (c == '{' || c == '[') {
        const bool object = c == '{';
        const char close = object ? '}' : ']';
        ++cur;
        out.kind = object ? JsonValue::Kind::Object : JsonValue::Kind::Array;
        const std::size_t n =
            nextCount < counts.size() ? counts[nextCount++] : 0;
        ws();
        if (cur < end && *cur == close) { ++cur; return true; }
        // countValues() counted every ',' this loop can consume, so
        // neither check fires; they keep a slip from writing past the
        // run or the array.
        if (n > static_cast<std::size_t>(last - next))
            return fail("more values than counted");
        JsonValue *const run = next;
        next += n;
        out._first = run;
        std::uint64_t seen = 0;   // a bit per key hash, for objects
        for (;;) {
            if (out._count == n)
                return fail("more values than counted");
            JsonValue &v = run[out._count++];
            if (object) {
                ws();
                if (!string(v._key))
                    return false;
                ws();
                if (cur >= end || *cur != ':')
                    return fail("expected ':'");
                ++cur;
            }
            if (!valueAt(v, depth + 1))
                return false;
            if (object) {
                // A key whose hash bit is still clear repeats no earlier
                // key, so most keys skip the scan.
                const std::string_view k = v._key;
                const std::size_t hash =
                    k.empty() ? 0
                              : k.size() + static_cast<unsigned char>(k.back());
                const std::uint64_t bit = std::uint64_t{1} << (hash & 63);
                for (std::size_t i = 0; (seen & bit) && i + 1 < out._count;
                     ++i)
                    if (run[i]._key == k)
                        return fail("duplicate key '" + std::string(k) +
                                    "'");
                seen |= bit;
            }
            ws();
            if (cur < end && *cur == ',') { ++cur; continue; }
            if (cur < end && *cur == close) { ++cur; return true; }
            return fail(object ? "expected ',' or '}'"
                               : "expected ',' or ']'");
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
        while (cur < end && is(*cur, NumberByte))
            ++cur;
        out.raw.assign(start, static_cast<std::size_t>(cur - start));
        return true;
    }
    return fail("unexpected character");
}

void
renderJson(const JsonValue &v, std::string &out)
{
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
      case JsonValue::Kind::Object:
      case JsonValue::Kind::Array: {
        const bool object = v.kind == JsonValue::Kind::Object;
        out += object ? '{' : '[';
        bool first = true;
        for (const JsonValue &m : object ? v.members() : v.items()) {
            if (!first)
                out += ',';
            first = false;
            if (object) {
                json::appendString(out, m.key());
                out += ':';
            }
            renderJson(m, out);
        }
        out += object ? '}' : ']';
        break;
      }
    }
}

bool
numberAsU64(const JsonValue &v, std::uint64_t &out)
{
    return v.kind == JsonValue::Kind::Number && json::parseU64(v.raw, out);
}

} // namespace wire
} // namespace swex
