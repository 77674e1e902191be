/**
 * @file
 * Adversarial network fault injection. The mesh itself is reliable;
 * the fault injector models the failure class the paper's protocols
 * (and the LimitLESS trap model they reproduce) simply assume away:
 * messages that vanish on the wire, arrive twice, or are held for a
 * long bounded "blackout" before delivery.
 *
 * Faults are drawn from the same counter-hash PRNG style as the
 * jitter stressor: one deterministic decision per wire transmission,
 * a pure function of (seed, transmission index). A fault schedule
 * therefore replays exactly by seed, at any host parallelism.
 */

#ifndef SWEX_NET_FAULT_HH
#define SWEX_NET_FAULT_HH

#include <cstdint>

#include "base/rng.hh"
#include "base/types.hh"

namespace swex
{

/**
 * Fault rates, the blackout bound and the fault seed. Rates are
 * per-mille probabilities applied independently to every wire
 * transmission (including retransmissions, so a retransmitted message
 * can be lost again). All-zero rates disable the fault layer
 * entirely: the delivery machinery is never constructed and the clean
 * path costs zero cycles.
 */
struct FaultConfig
{
    unsigned dropPerMille = 0;      ///< P(transmission vanishes) * 1000
    unsigned dupPerMille = 0;       ///< P(second copy injected) * 1000
    unsigned blackoutPerMille = 0;  ///< P(held for a blackout) * 1000
    Cycles blackoutMax = 512;       ///< bound on the blackout delay

    /** Seed for the fault stream (schedules replay exactly by seed). */
    std::uint64_t seed = 0;

    bool
    enabled() const
    {
        return dropPerMille != 0 || dupPerMille != 0 ||
               blackoutPerMille != 0;
    }
};

/** The fate of one wire transmission. */
struct FaultRoll
{
    bool drop = false;       ///< every copy of this transmission vanishes
    bool duplicate = false;  ///< a second copy is injected
    Cycles extraDelay = 0;   ///< blackout hold, in [0, blackoutMax]
};

/**
 * Seeded fault stream. Each roll() consumes one counter step and
 * chains three SplitMix64 finalizations, so the drop, duplicate, and
 * blackout decisions are drawn from independently mixed bits of the
 * same deterministic stream.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig &cfg) : _cfg(cfg) {}

    FaultRoll
    roll()
    {
        std::uint64_t z1 = mix64(_cfg.seed + goldenGamma * ++_counter);
        std::uint64_t z2 = mix64(z1);
        std::uint64_t z3 = mix64(z2);

        FaultRoll r;
        r.drop = z1 % 1000 < _cfg.dropPerMille;
        r.duplicate = z2 % 1000 < _cfg.dupPerMille;
        if (z3 % 1000 < _cfg.blackoutPerMille)
            r.extraDelay = static_cast<Cycles>(
                (z3 >> 32) % (_cfg.blackoutMax + 1));
        return r;
    }

    /** Decisions consumed so far (diagnostics/tests). */
    std::uint64_t rolls() const { return _counter; }

  private:
    FaultConfig _cfg;
    std::uint64_t _counter = 0;
};

} // namespace swex

#endif // SWEX_NET_FAULT_HH
