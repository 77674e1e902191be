#include "exp/cache/code_version.hh"

#include <cerrno>
#include <cstdlib>

#include "base/binary_io.hh"
#include "base/logging.hh"
#include "exp/spec.hh"

namespace swex
{
namespace cache
{

namespace
{

std::uint64_t
envEpoch()
{
    const char *env = std::getenv("SWEX_CACHE_EPOCH");
    if (env == nullptr || *env == '\0')
        return 0;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0' || errno == ERANGE) {
        warn("ignoring malformed $SWEX_CACHE_EPOCH='%s' (want a "
             "non-negative integer); using epoch 0", env);
        return 0;
    }
    return static_cast<std::uint64_t>(v);
}

} // anonymous namespace

CodeVersions
CodeVersions::current()
{
    const GeneratedFingerprints &fp = generatedFingerprints();
    CodeVersions v;
    v.core = fp.core;
    v.apps = fp.apps;
    v.directory = fp.directory;
    v.snoop = fp.snoop;
    v.epoch = envEpoch();
    return v;
}

std::uint64_t
codeFingerprint(const ExperimentSpec &spec, const CodeVersions &versions)
{
    std::uint64_t h = bin::fnvOffset;
    h = bin::fnv1aU64(h, versions.core);
    h = bin::fnv1aU64(h, versions.apps);
    h = bin::fnv1aU64(h, versions.epoch);
    // Only the backend the run actually exercises participates, so a
    // directory-stack bump leaves every snooping cell warm and vice
    // versa. Sequential references always run on the 1-node full-map
    // directory machine, whatever backend the spec names.
    bool on_directory = spec.sequential ||
                        spec.machineModel == MachineModel::Directory;
    if (on_directory) {
        h = bin::fnv1aU64(h, 0xD1);
        h = bin::fnv1aU64(h, versions.directory);
    } else {
        h = bin::fnv1aU64(h, 0x5B);
        h = bin::fnv1aU64(h, versions.snoop);
    }
    return h;
}

} // namespace cache
} // namespace swex
