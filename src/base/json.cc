#include "base/json.hh"

#include <charconv>
#include <cmath>
#include <cstdint>

namespace swex::json
{

void
appendNumber(std::string &out, double v)
{
    if (!(v == v) || v > 1e308 || v < -1e308) {
        out += '0';
        return;
    }
    char buf[32];
    // Below 1e17 an integral value prints as its digits under
    // "%.17g" too, and the integer conversion is much cheaper; most
    // stats are counts. -0.0 keeps its sign on the general path.
    if (v > -1e17 && v < 1e17) {
        const auto whole = static_cast<std::int64_t>(v);
        if (static_cast<double>(whole) == v &&
            !(whole == 0 && std::signbit(v))) {
            auto res = std::to_chars(buf, buf + sizeof(buf), whole);
            out.append(buf, res.ptr);
            return;
        }
    }
    auto res = std::to_chars(buf, buf + sizeof(buf), v,
                             std::chars_format::general, 17);
    out.append(buf, res.ptr);
}

void
appendString(std::string &out, std::string_view s)
{
    static const char hex[] = "0123456789abcdef";
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += "\\u00";
                out += hex[c >> 4];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

bool
parseU64(const std::string &text, std::uint64_t &out)
{
    if (text.empty())
        return false;
    for (char c : text)
        if (c < '0' || c > '9')
            return false;
    auto res = std::from_chars(text.data(), text.data() + text.size(),
                               out);
    return res.ec == std::errc{} && res.ptr == text.data() + text.size();
}

} // namespace swex::json
