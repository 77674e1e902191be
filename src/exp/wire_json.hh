/**
 * @file
 * The line-delimited JSON wire format shared by the sweep server
 * (exp/serve.*), the serve client library (exp/client.*), and the
 * socket-level chaos harness (tools/stress_serve). One deliberately
 * small, read-only JSON document + recursive-descent parser: strict
 * whole-line parse, duplicate object keys rejected (a request that
 * says "nodes" twice is ambiguous, and silently taking either
 * occurrence would run the wrong cell), numbers keep their raw token
 * so 64-bit seeds survive without a double round-trip. Errors are
 * strings, not exceptions — a malformed line answers a structured
 * error, it never takes a peer down.
 *
 * The parser is the only producer of values, and each parsed line is
 * one document. The root JsonValue owns a private copy of the line
 * and one array holding every other value of it. A container's values
 * are one contiguous run of that array; an object's keys are views
 * into the copy, their escapes decoded in place; a string or number
 * keeps its bytes in `raw`. So a parse allocates the copy, the array,
 * the parser's per-container counts, and one buffer per string or
 * number too long for std::string's inline storage. Pointers, spans
 * and keys into a document stay valid until its root is destroyed,
 * assigned to or parsed into again. A request is built as text (see
 * codec::Request), never as a value.
 */

#ifndef SWEX_EXP_WIRE_JSON_HH
#define SWEX_EXP_WIRE_JSON_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace swex
{
namespace wire
{

class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Object, Array };
    Kind kind = Kind::Null;
    bool boolean = false;
    std::string raw;   ///< number token, or decoded string value

    JsonValue() = default;
    /** A copy owns a document of its own, parsed from @p o's
     *  rendering, so it outlives @p o and @p o's line. */
    JsonValue(const JsonValue &o);
    JsonValue &operator=(const JsonValue &o);
    /** A move takes @p o's document and leaves @p o null. */
    JsonValue(JsonValue &&o) noexcept;
    JsonValue &operator=(JsonValue &&o) noexcept;
    ~JsonValue() = default;

    /** An object's values in line order, each named by key(); empty
     *  for any other kind. */
    std::span<const JsonValue>
    members() const
    {
        return kind == Kind::Object ? run() : std::span<const JsonValue>{};
    }

    /** An array's values in order; empty for any other kind. */
    std::span<const JsonValue>
    items() const
    {
        return kind == Kind::Array ? run() : std::span<const JsonValue>{};
    }

    /** This value's key when it is an object's member, else "". */
    std::string_view key() const { return _key; }

    /** The member of this object named @p key, or nullptr. */
    const JsonValue *
    find(std::string_view key) const
    {
        for (const JsonValue &m : members())
            if (m._key == key)
                return &m;
        return nullptr;
    }

  private:
    friend struct JsonParser;

    std::span<const JsonValue> run() const { return {_first, _count}; }
    void reset();

    std::string_view _key;
    const JsonValue *_first = nullptr;   ///< this container's values
    std::size_t _count = 0;
    /** The root's document: the line's copy, every other value. */
    std::unique_ptr<char[]> _text;
    std::unique_ptr<JsonValue[]> _values;
};

struct JsonParser
{
    std::string err;

    /** Maximum container nesting accepted. The parser and renderJson
     *  recurse per nesting level and a request line may be up to the
     *  server's line cap (1 MiB), so without this bound a peer sending
     *  ~500k nested '[' would overflow the reader thread's stack — a
     *  crash, not the structured error the wire contract promises. */
    static constexpr int maxDepth = 64;

    /** A parser of @p s, which must outlive parseWhole(); the
     *  document copies it. A temporary would not, so none binds. */
    explicit JsonParser(const std::string &s) : line(s) {}
    explicit JsonParser(std::string &&) = delete;

    /** Parse the whole input as one value into @p out, replacing
     *  whatever @p out held; trailing bytes fail. */
    bool parseWhole(JsonValue &out);

  private:
    std::string_view line;
    char *cur = nullptr;   ///< in the document's copy of the line
    char *end = nullptr;
    /** Values per container, in the order the containers open; see
     *  countValues(). Lives and dies with the parser. */
    std::vector<std::size_t> counts;
    std::size_t nextCount = 0;
    JsonValue *next = nullptr;   ///< the document's first free value
    JsonValue *last = nullptr;   ///< one past its last value

    std::size_t countValues();
    void ws();
    bool fail(const std::string &why);
    bool literal(const char *word);
    bool string(std::string_view &out);
    bool valueAt(JsonValue &out, int depth);
};

/** Render a value as JSON — used to echo a rejected tag back verbatim
 *  (whatever its type), so the peer can correlate the error with the
 *  request, and to re-render a parsed value's bytes. */
void renderJson(const JsonValue &v, std::string &out);

/** A JSON number token as a u64, refusing signs/fractions/exponents
 *  (seeds must survive exactly; doubles would round them). */
bool numberAsU64(const JsonValue &v, std::uint64_t &out);

} // namespace wire
} // namespace swex

#endif // SWEX_EXP_WIRE_JSON_HH
