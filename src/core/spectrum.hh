/**
 * @file
 * Named points on the protocol spectrum, in cost order, as evaluated
 * by the paper. Shared by tests, benchmark harnesses, and examples.
 */

#ifndef SWEX_CORE_SPECTRUM_HH
#define SWEX_CORE_SPECTRUM_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/protocol.hh"

namespace swex
{

/** A labeled protocol configuration. */
struct SpectrumPoint
{
    std::string label;
    ProtocolConfig protocol;
};

/** The full spectrum, from zero hardware pointers to full-map. */
inline std::vector<SpectrumPoint>
protocolSpectrum()
{
    return {
        {"H0-ACK", ProtocolConfig::h0()},
        {"H1-ACK", ProtocolConfig::h1Ack()},
        {"H1-LACK", ProtocolConfig::h1Lack()},
        {"H1", ProtocolConfig::h1()},
        {"H2", ProtocolConfig::hw(2)},
        {"H3", ProtocolConfig::hw(3)},
        {"H4", ProtocolConfig::hw(4)},
        {"H5", ProtocolConfig::hw(5)},
        {"DIR1SW", ProtocolConfig::dir1sw()},
        {"FULLMAP", ProtocolConfig::fullMap()},
    };
}

/**
 * The --protocol key of each protocolSpectrum() point, in the same
 * order: the one spelling swex_cli, the sweep server and the stress
 * tools accept and print.
 */
inline constexpr const char *spectrumKeys[] = {
    "h0", "h1ack", "h1lack", "h1", "h2", "h3", "h4", "h5", "dir1sw",
    "full",
};

/** The --protocol key that selects spectrum label @p label ("" if
 *  no point carries it). */
inline std::string
spectrumKey(const std::string &label)
{
    const auto points = protocolSpectrum();
    for (std::size_t i = 0; i < points.size(); ++i)
        if (points[i].label == label)
            return spectrumKeys[i];
    return "";
}

/** Set @p out to the spectrum point --protocol key @p key selects.
 *  @return false if @p key names none. */
inline bool
parseSpectrumKey(const std::string &key, ProtocolConfig &out)
{
    const auto points = protocolSpectrum();
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (key == spectrumKeys[i]) {
            out = points[i].protocol;
            return true;
        }
    }
    return false;
}

/** The pointer-cost axis used by Figure 4: 0,1,2,3,4,5,n. */
inline std::vector<SpectrumPoint>
pointerAxis()
{
    return {
        {"0", ProtocolConfig::h0()},
        {"1", ProtocolConfig::h1Ack()},
        {"2", ProtocolConfig::hw(2)},
        {"3", ProtocolConfig::hw(3)},
        {"4", ProtocolConfig::hw(4)},
        {"5", ProtocolConfig::hw(5)},
        {"n", ProtocolConfig::fullMap()},
    };
}

} // namespace swex

#endif // SWEX_CORE_SPECTRUM_HH
