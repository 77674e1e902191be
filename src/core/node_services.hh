/**
 * @file
 * The boundary between the coherence core and the machine model. The
 * home-side controller needs to send messages, interrupt the local
 * processor (raise a software-extension trap), and reach the node's
 * cache and memory; the Node object implements this interface.
 */

#ifndef SWEX_CORE_NODE_SERVICES_HH
#define SWEX_CORE_NODE_SERVICES_HH

#include <cstdint>
#include <functional>

#include "base/types.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"
#include "net/message.hh"

namespace swex
{

/** Why the hardware interrupted the home processor. */
enum class TrapKind : std::uint8_t
{
    ReadOverflow,    ///< read request exhausted the hardware pointers
    WriteOverflow,   ///< write to a block whose pointers overflowed
    WriteBroadcast,  ///< Dir1SW: write to a broadcast-marked block
    LastAck,         ///< LACK: final acknowledgment arrived
    EveryAck,        ///< ACK: one acknowledgment arrived
    SwRequest,       ///< H0: software must run the protocol itself
    SwBusy,          ///< software must answer "busy" for a pending block
    NumKinds
};

/** One queued software-extension request. */
struct TrapItem
{
    TrapKind kind = TrapKind::SwRequest;
    Message msg;      ///< the message that caused the trap
};

/** Services a home controller obtains from its node. */
class NodeServices
{
  public:
    virtual ~NodeServices() = default;

    /** Inject a protocol message @p delay cycles from now. */
    virtual void sendMsg(const Message &msg, Cycles delay) = 0;

    /** Queue a software-extension trap on the local processor. */
    virtual void raiseTrap(const TrapItem &item) = 0;

    /** Invalidate the home node's own cached copy of a block. */
    virtual RemovalResult invalidateLocal(Addr block_addr) = 0;

    /** Downgrade the home node's own dirty copy to shared. */
    virtual RemovalResult downgradeLocal(Addr block_addr) = 0;

    /** The node's main memory. */
    virtual MemoryModule &memory() = 0;

    /** Schedule deferred controller work @p delay cycles from now. */
    virtual void schedule(Cycles delay, std::function<void()> fn) = 0;
};

} // namespace swex

#endif // SWEX_CORE_NODE_SERVICES_HH
