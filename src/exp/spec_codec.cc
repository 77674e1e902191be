#include "exp/spec_codec.hh"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "apps/registry.hh"
#include "base/json.hh"
#include "core/directory.hh"
#include "core/spectrum.hh"
#include "machine/coherence.hh"

namespace swex
{
namespace codec
{

namespace
{

using wire::JsonValue;

/**
 * A spec mid-decode. The fields whose meaning depends on other fields
 * stay spelled as keys until build() resolves them. A default-built
 * Draft holds the defaults every front end shares.
 */
struct Draft : ExperimentSpec
{
    std::string protocolKey = "h5";
    std::string busKey;
    std::string profileKey = "c";
    bool localBit = true;

    Draft() { victimEntries = 6; }
};

/** Where a field lives in a Draft; the member's type is its kind. */
using Slot = std::variant<std::string Draft::*, int Draft::*,
                          unsigned Draft::*, std::uint64_t Draft::*,
                          bool Draft::*, AppParams Draft::*>;

template <class M>
using MemberType =
    std::remove_reference_t<decltype(std::declval<Draft &>().*
                                     std::declval<M>())>;

struct Field
{
    const char *key;       ///< request key
    const char *flag;      ///< swex_cli flag; nullptr = wire only
    Slot slot;
    std::uint64_t lo, hi;  ///< integer range
    const char *want;      ///< completes "bad value for '<key>' "
    bool pinned;           ///< encoders spell it even at its default
};

constexpr std::uint64_t anyU64 = ~std::uint64_t{0};
constexpr const char *wantInt = "(want an integer in range)";
constexpr const char *wantStr = "(want a string)";
constexpr const char *wantBool = "(want a bool)";

/** Every spec field, in the order the encoders spell them. A presence
 *  flag flips its bool from the default; rows sharing a flag (the
 *  fault rates) take one comma-separated value. */
const Field fields[] = {
    {"id", nullptr, &Draft::id, 0, 0, wantStr, true},
    {"app", "--app", &Draft::app, 0, 0, wantStr, true},
    {"nodes", "--nodes", &Draft::nodes, 1, maxNodes, wantInt, true},
    {"protocol", "--protocol", &Draft::protocolKey, 0, 0, wantStr, true},
    {"bus", "--bus", &Draft::busKey, 0, 0, "(want fifo or rr)", false},
    {"profile", "--profile", &Draft::profileKey, 0, 0,
     "(want c or asm)", false},
    {"victim", "--victim", &Draft::victimEntries, 0, 4096, wantInt, true},
    {"seed", "--seed", &Draft::seed, 0, anyU64, wantInt, true},
    {"params", "--param", &Draft::params, 0, 0,
     "(want an object of string values)", false},
    {"seq", nullptr, &Draft::sequential, 0, 0, wantBool, false},
    {"audit", "--audit", &Draft::audit, 0, 0, wantBool, false},
    {"track_sharing", nullptr, &Draft::trackSharing, 0, 0, wantBool,
     false},
    {"jitter", "--jitter", &Draft::jitterMax, 0, 1u << 20, wantInt,
     false},
    {"jitter_seed", "--jitter-seed", &Draft::jitterSeed, 0, anyU64,
     wantInt, false},
    {"fault_drop", "--faults", &Draft::faultDropPerMille, 0, 1000,
     wantInt, false},
    {"fault_dup", "--faults", &Draft::faultDupPerMille, 0, 1000, wantInt,
     false},
    {"fault_blackout", "--faults", &Draft::faultBlackoutPerMille, 0,
     1000, wantInt, false},
    {"fault_seed", "--fault-seed", &Draft::faultSeed, 0, anyU64, wantInt,
     false},
    {"deadline", "--deadline", &Draft::deadline, 0, anyU64, wantInt,
     false},
    {"local_bit", "--no-local-bit", &Draft::localBit, 0, 0, wantBool,
     false},
    {"perfect_ifetch", "--perfect-ifetch", &Draft::perfectIfetch, 0, 0,
     wantBool, false},
    {"parallel_inv", "--parallel-inv", &Draft::parallelInv, 0, 0,
     wantBool, false},
};

const Draft defaults;

/** Whether field @p f holds a T (integers are any other kind). */
template <class T>
bool
holds(const Field &f)
{
    return std::holds_alternative<T Draft::*>(f.slot);
}

const Field *
fieldFor(std::string_view key)
{
    for (const Field &f : fields)
        if (key == f.key)
            return &f;
    return nullptr;
}

bool
sameFlag(const Field &f, const char *flag)
{
    return f.flag != nullptr && std::strcmp(f.flag, flag) == 0;
}

std::string
badValue(const Field &f)
{
    return std::string("bad value for '") + f.key + "' " + f.want;
}

bool
isDefault(const Field &f, const Draft &d)
{
    return std::visit([&](auto m) { return d.*m == defaults.*m; },
                      f.slot);
}

/** A scalar field's value as command-line text. */
std::string
textOf(const Field &f, const Draft &d)
{
    return std::visit(
        [&](auto m) -> std::string {
            using T = MemberType<decltype(m)>;
            if constexpr (std::is_same_v<T, std::string>)
                return d.*m;
            else if constexpr (std::is_same_v<T, bool>)
                return d.*m ? "true" : "false";
            else if constexpr (std::is_integral_v<T>)
                return std::to_string(d.*m);
            else
                return "";
        },
        f.slot);
}

std::string
decodeField(const Field &f, const JsonValue &v, Draft &d)
{
    return std::visit(
        [&](auto m) -> std::string {
            using T = MemberType<decltype(m)>;
            if constexpr (std::is_same_v<T, std::string>) {
                if (v.kind != JsonValue::Kind::String)
                    return badValue(f);
                d.*m = v.raw;
            } else if constexpr (std::is_same_v<T, bool>) {
                if (v.kind != JsonValue::Kind::Bool)
                    return badValue(f);
                d.*m = v.boolean;
            } else if constexpr (std::is_same_v<T, AppParams>) {
                if (v.kind != JsonValue::Kind::Object)
                    return badValue(f);
                for (const JsonValue &p : v.members()) {
                    const std::string k(p.key());
                    if (p.kind != JsonValue::Kind::String &&
                        p.kind != JsonValue::Kind::Number)
                        return "bad value for params." + k +
                               " (want string or number)";
                    (d.*m)[k] = p.raw;
                }
            } else {
                std::uint64_t n = 0;
                if (!wire::numberAsU64(v, n) || n < f.lo || n > f.hi)
                    return badValue(f);
                d.*m = static_cast<T>(n);
            }
            return "";
        },
        f.slot);
}

/** The cross-field rules: resolve the spelled keys of @p d. */
std::string
build(Draft &d, ExperimentSpec &spec)
{
    if (d.profileKey != "c" && d.profileKey != "asm")
        return badValue(*fieldFor("profile"));
    d.profile = d.profileKey == "asm" ? HandlerProfile::TunedAsm
                                      : HandlerProfile::FlexibleC;
    // The app's own parameters too: a request naming an unknown or
    // malformed one, or one the cell's machine (a single node for the
    // sequential reference) cannot hold, is a decode error, never a
    // failed run.
    std::string err = AppRegistry::instance().check(
        d.app, d.params, d.nodes, d.sequential ? 1 : d.nodes);
    if (!err.empty())
        return err;

    if (parseSnoopProtocol(d.protocolKey, d.snoopProtocol)) {
        d.machineModel = MachineModel::Snoop;
        if (d.jitterMax != 0 || d.faultsOn())
            return "the snooping bus models no network: drop "
                   "jitter/fault fields";
        // Worker sets are counted at the directory's homes.
        if (d.trackSharing)
            return "the snooping bus has no directory to track "
                   "sharing: drop track_sharing";
    } else if (!parseSpectrumKey(d.protocolKey, d.protocol)) {
        return "unknown protocol '" + d.protocolKey + "'";
    } else if (!d.localBit) {
        d.protocol.localBit = false;
    }
    if (!d.busKey.empty()) {
        if (d.machineModel != MachineModel::Snoop)
            return "'bus' applies to snooping protocols only";
        if (!parseBusArbitration(d.busKey, d.busArbitration))
            return badValue(*fieldFor("bus"));
    }
    // A faulty wire can livelock a run (every retransmission
    // re-dropped); never run one without a deadline.
    if (d.faultsOn() && d.deadline == 0)
        d.deadline = 50'000'000;
    spec = static_cast<const ExperimentSpec &>(d);
    return "";
}

/** build() in reverse: spell @p spec's protocol, bus and profile. */
Draft
spell(const ExperimentSpec &spec)
{
    Draft d;
    static_cast<ExperimentSpec &>(d) = spec;
    d.profileKey = spec.profile == HandlerProfile::TunedAsm ? "asm" : "c";
    if (spec.machineModel == MachineModel::Snoop) {
        d.protocolKey = snoopProtocolName(spec.snoopProtocol);
        for (char &c : d.protocolKey)
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        d.busKey = busArbitrationName(spec.busArbitration);
        return d;
    }
    // A spectrum point with its local-bit pointer cleared spells as
    // that point plus local_bit:false; "" if no point matches.
    d.protocolKey = "";
    const auto points = protocolSpectrum();
    for (std::size_t i = 0; i < points.size(); ++i) {
        const ProtocolConfig &p = spec.protocol, &q = points[i].protocol;
        if (q.hwPointers == p.hwPointers && q.ackMode == p.ackMode &&
            q.swBroadcast == p.swBroadcast &&
            (q.localBit || !p.localBit)) {
            d.protocolKey = spectrumKeys[i];
            d.localBit = q.localBit == p.localBit;
        }
    }
    return d;
}

/** The app parameter swex_cli shorthand @p flag sets ("" if none). */
std::string
shorthand(const std::string &flag)
{
    return flag == "--wss" ? "wss" : flag == "--iters" ? "iterations" : "";
}

} // anonymous namespace

bool
isEnvelopeKey(std::string_view key)
{
    return key == "op" || key == "tag" || key == "canonical" ||
           key == "cursor" || key == "chunk";
}

void
Request::putJson(const std::string &key, std::string json)
{
    auto *list = &entries;
    std::string name = key;
    if (key.rfind("params.", 0) == 0) {
        name = key.substr(7);
        list = &params;
        if (std::none_of(entries.begin(), entries.end(),
                         [](const auto &e) { return e.first == "params"; }))
            entries.emplace_back("params", "");
    }
    for (auto &[k, v] : *list) {
        if (k == name) {
            v = std::move(json);
            return;
        }
    }
    list->emplace_back(std::move(name), std::move(json));
}

void
Request::set(const std::string &key, const std::string &text)
{
    const Field *f = fieldFor(key);
    std::string json;
    if (f != nullptr && holds<bool>(*f))
        json = text == "true" ? "true" : "false";
    else if (f != nullptr && !holds<std::string>(*f) && !text.empty() &&
             text.find_first_not_of("0123456789") == std::string::npos)
        json = text;
    else
        json::appendString(json, text);
    putJson(key, std::move(json));
}

void
Request::put(const std::string &key, const JsonValue &v)
{
    if (key == "params" && v.kind == JsonValue::Kind::Object) {
        putJson("params", "");
        for (const JsonValue &m : v.members())
            put("params." + std::string(m.key()), m);
        return;
    }
    std::string json;
    wire::renderJson(v, json);
    putJson(key, std::move(json));
}

std::string
Request::members() const
{
    std::string out;
    for (const auto &[k, v] : entries) {
        out += ',';
        json::appendString(out, k);
        out += ':';
        if (k != "params" || !v.empty()) {
            out += v;
            continue;
        }
        out += '{';
        for (std::size_t i = 0; i < params.size(); ++i) {
            if (i > 0)
                out += ',';
            json::appendString(out, params[i].first);
            out += ':';
            out += params[i].second;
        }
        out += '}';
    }
    return out;
}

std::string
Request::line() const
{
    std::string out = members();
    if (out.empty())
        return "{}";
    out[0] = '{';   // in place of the first member's comma
    return out + '}';
}

int
flagValues(const std::string &flag)
{
    if (!shorthand(flag).empty())
        return 1;
    for (const Field &f : fields)
        if (sameFlag(f, flag.c_str()))
            return holds<bool>(f) ? 0 : 1;
    return -1;
}

std::string
setFlag(Request &req, const std::string &flag, const std::string &value)
{
    if (!shorthand(flag).empty()) {
        req.set("params." + shorthand(flag), value);
        return "";
    }
    std::vector<const Field *> rows;
    for (const Field &f : fields)
        if (sameFlag(f, flag.c_str()))
            rows.push_back(&f);
    if (rows.empty())
        return flag + " is not a spec flag";
    const Field &f = *rows.front();
    if (holds<bool>(f)) {
        req.set(f.key, textOf(f, defaults) == "true" ? "false" : "true");
        return "";
    }
    if (holds<AppParams>(f)) {
        std::size_t eq = value.find('=');
        if (eq == std::string::npos || eq == 0)
            return flag + " wants key=value, got '" + value + "'";
        req.set("params." + value.substr(0, eq), value.substr(eq + 1));
        return "";
    }
    // One comma-separated value per row sharing the flag; rows past
    // the last value take their defaults.
    std::vector<std::string> parts{""};
    for (char c : value) {
        if (c == ',' && rows.size() > 1)
            parts.emplace_back();
        else
            parts.back() += c;
    }
    if (parts.size() > rows.size())
        return flag + " takes at most " + std::to_string(rows.size()) +
               " comma-separated values, got '" + value + "'";
    for (std::size_t k = 0; k < rows.size(); ++k)
        req.set(rows[k]->key,
                k < parts.size() ? parts[k] : textOf(*rows[k], defaults));
    return "";
}

std::string
decode(const JsonValue &req, const std::string &default_id,
       ExperimentSpec &spec)
{
    Draft d;
    d.id = default_id;
    for (const JsonValue &v : req.members()) {
        if (isEnvelopeKey(v.key()))
            continue;
        const Field *f = fieldFor(v.key());
        if (f == nullptr)
            return "unknown field '" + std::string(v.key()) + "'";
        std::string err = decodeField(*f, v, d);
        if (!err.empty())
            return err;
    }
    return build(d, spec);
}

std::string
decode(const Request &req, const std::string &default_id,
       ExperimentSpec &spec)
{
    const std::string line = req.line();
    JsonValue v;
    wire::JsonParser p(line);
    if (!p.parseWhole(v))
        return p.err;
    return decode(v, default_id, spec);
}

Request
toRequest(const ExperimentSpec &spec)
{
    const Draft d = spell(spec);
    Request req;
    for (const Field &f : fields) {
        if (!f.pinned && isDefault(f, d))
            continue;
        if (!holds<AppParams>(f))
            req.set(f.key, textOf(f, d));
        else
            for (const auto &[k, v] : d.params)
                req.set("params." + k, v);
    }
    return req;
}

std::string
toCommandLine(const ExperimentSpec &spec)
{
    const Draft d = spell(spec);
    std::string line = "swex_cli";
    for (std::size_t i = 0; i < std::size(fields); ++i) {
        const Field &f = fields[i];
        if (f.flag == nullptr ||
            (i > 0 && sameFlag(fields[i - 1], f.flag)))
            continue;   // wire only, or spelled with the row before
        std::size_t end = i + 1;
        while (end < std::size(fields) && sameFlag(fields[end], f.flag))
            ++end;
        bool spelled = f.pinned;
        for (std::size_t j = i; j < end; ++j)
            spelled = spelled || !isDefault(fields[j], d);
        if (!spelled)
            continue;
        if (holds<AppParams>(f)) {
            for (const auto &[k, v] : d.params)
                line.append(" ").append(f.flag).append(" ").append(k)
                    .append("=").append(v);
            continue;
        }
        line.append(" ").append(f.flag);
        for (std::size_t j = i; j < end && !holds<bool>(f); ++j)
            line.append(j == i ? " " : ",").append(textOf(fields[j], d));
    }
    return line;
}

} // namespace codec
} // namespace swex
