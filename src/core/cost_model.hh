/**
 * @file
 * Cycle cost model for the protocol extension software, calibrated
 * from Table 2 of the paper. Two profiles exist, mirroring the two
 * software systems the paper compares:
 *
 *  - FlexibleC: handlers written in C against the flexible coherence
 *    interface. Pays for a protocol-specific dispatch, C environment
 *    setup, hash-table administration, and general-purpose memory
 *    management.
 *  - TunedAsm: the hand-tuned assembly-language handlers. Skips the
 *    activities that are "N/A" in Table 2 and uses cheaper per-unit
 *    costs for pointer and invalidation processing.
 *
 * Per-unit derivations (documented in EXPERIMENTS.md): Table 2's
 * "store pointers into extended directory" of 235 cycles covers the 6
 * pointers a read-overflow handler records with 8 readers per block
 * (5 emptied from hardware + the requester), giving ~39 cycles per
 * pointer in C and ~12 in assembly. "invalidation lookup and
 * transmit" of 419 cycles covers 8 invalidations, ~52 per
 * invalidation in C and ~31 in assembly.
 */

#ifndef SWEX_CORE_COST_MODEL_HH
#define SWEX_CORE_COST_MODEL_HH

#include <cstdint>

#include "base/types.hh"

namespace swex
{

/** Which software implementation's costs to charge. */
enum class HandlerProfile : std::uint8_t
{
    FlexibleC,
    TunedAsm,
};

/** Activities performed by a software protocol handler (Table 2). */
enum class Activity : std::uint8_t
{
    TrapDispatch,    ///< hardware exception/interrupt entry
    MsgDispatch,     ///< system message dispatch
    ProtoDispatch,   ///< protocol-specific dispatch (C only)
    DecodeDir,       ///< decode and modify the hardware directory
    SaveState,       ///< save state for C function calls (C only)
    MemMgmt,         ///< free-list memory manager
    HashAdmin,       ///< hash table administration (C only)
    StorePointer,    ///< per pointer stored into the extension
    FreePointer,     ///< per pointer looked up/freed on a write
    InvXmit,         ///< per invalidation composed and transmitted
    DataSend,        ///< software composes and sends a data reply
    BusySend,        ///< software composes and sends a busy reply
    NonAlewife,      ///< simulator-only protocol support (C only)
    TrapReturn,      ///< return to user code
    NumActivities
};

/** Cycle costs per (profile, activity, read-vs-write handler). */
class CostModel
{
  public:
    explicit CostModel(HandlerProfile profile) : _profile(profile) {}

    HandlerProfile profile() const { return _profile; }

    /** Cost in cycles of one occurrence of @p a. */
    Cycles cost(Activity a, bool is_write) const;

  private:
    HandlerProfile _profile;
};

} // namespace swex

#endif // SWEX_CORE_COST_MODEL_HH
