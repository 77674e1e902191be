/**
 * @file
 * The line-delimited JSON wire format shared by the sweep server
 * (exp/serve.*), the serve client library (exp/client.*), and the
 * socket-level chaos harness (tools/stress_serve). One deliberately
 * small JSON value + recursive-descent parser: strict whole-line
 * parse, duplicate object keys rejected (a request that says "nodes"
 * twice is ambiguous, and silently taking either occurrence would run
 * the wrong cell), numbers keep their raw token so 64-bit seeds
 * survive without a double round-trip. Errors are strings, not
 * exceptions — a malformed line answers a structured error, it never
 * takes a peer down.
 */

#ifndef SWEX_EXP_WIRE_JSON_HH
#define SWEX_EXP_WIRE_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace swex
{
namespace wire
{

struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Object, Array };
    Kind kind = Kind::Null;
    bool boolean = false;
    std::string raw;   ///< number token, or decoded string value
    std::vector<std::pair<std::string, JsonValue>> members;
    std::vector<JsonValue> items;

    const JsonValue *
    find(const std::string &key) const
    {
        for (const auto &[k, v] : members)
            if (k == key)
                return &v;
        return nullptr;
    }
};

struct JsonParser
{
    const char *cur;
    const char *end;
    std::string err;

    /** Maximum container nesting accepted (and re-rendered, see
     *  renderJson). The parser recurses per nesting level and a
     *  request line may be up to the server's line cap (1 MiB), so
     *  without this bound a peer sending ~500k nested '[' would
     *  overflow the reader thread's stack — a crash, not the
     *  structured error the wire contract promises. */
    static constexpr int maxDepth = 64;

    explicit JsonParser(const std::string &s)
        : cur(s.data()), end(s.data() + s.size())
    {}

    bool value(JsonValue &out);

    /** Parse the whole input as one value; trailing bytes fail. */
    bool parseWhole(JsonValue &out);

  private:
    /** Values per container, in the order the containers open; see
     *  countValues(). Lives and dies with the parser. */
    std::vector<std::size_t> counts;
    std::size_t nextCount = 0;

    void countValues();
    std::size_t takeCount();
    void ws();
    bool fail(const std::string &why);
    bool literal(const char *word);
    bool string(std::string &out);
    bool valueAt(JsonValue &out, int depth);
};

/** Render a value as JSON — used to send codec-built requests and to
 *  echo a rejected tag back verbatim (whatever its type), so the peer
 *  can correlate the error with the request. Bounded like the parser:
 *  anything nested past JsonParser::maxDepth renders as null, so
 *  echoing can never recurse deeper than parsing accepts. */
void renderJson(const JsonValue &v, std::string &out);

/** A JSON number token as a u64, refusing signs/fractions/exponents
 *  (seeds must survive exactly; doubles would round them). */
bool numberAsU64(const JsonValue &v, std::uint64_t &out);

} // namespace wire
} // namespace swex

#endif // SWEX_EXP_WIRE_JSON_HH
