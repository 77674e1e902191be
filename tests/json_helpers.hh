/**
 * @file
 * Test access to JSON documents through the wire parser
 * (exp/wire_json.hh), the one strict JSON parser in the tree: parse a
 * document or fail the test, and look members up without a null check
 * at every step.
 */

#ifndef SWEX_TESTS_JSON_HELPERS_HH
#define SWEX_TESTS_JSON_HELPERS_HH

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "exp/wire_json.hh"

namespace swex
{

/** @p text parsed whole; a parse error fails the test and reads as
 *  null. */
inline wire::JsonValue
parseJson(const std::string &text)
{
    wire::JsonValue v;
    wire::JsonParser p(text);
    if (!p.parseWhole(v)) {
        ADD_FAILURE() << "bad JSON (" << p.err
                      << "): " << text.substr(0, 200);
        return wire::JsonValue{};
    }
    return v;
}

/** Member @p key of object @p v; a missing key fails the test and
 *  reads as null. */
inline const wire::JsonValue &
at(const wire::JsonValue &v, const std::string &key)
{
    static const wire::JsonValue null;
    if (const wire::JsonValue *m = v.find(key))
        return *m;
    ADD_FAILURE() << "no member '" << key << "'";
    return null;
}

inline bool
has(const wire::JsonValue &v, const std::string &key)
{
    return v.find(key) != nullptr;
}

/** A number's value; anything else fails the test and reads as 0. */
inline double
numberOf(const wire::JsonValue &v)
{
    EXPECT_EQ(v.kind, wire::JsonValue::Kind::Number) << v.raw;
    return std::strtod(v.raw.c_str(), nullptr);
}

} // namespace swex

#endif // SWEX_TESTS_JSON_HELPERS_HH
