/**
 * @file
 * One node: processor, 4 MB of globally shared memory, and a
 * NodeCoherence engine built by the machine's CoherenceBackend (the
 * shared processor-side cache controller, plus the home directory on
 * the directory model). The node routes arriving network messages to
 * the engine and models receive-side occupancy.
 */

#ifndef SWEX_MACHINE_NODE_HH
#define SWEX_MACHINE_NODE_HH

#include <memory>

#include "base/stats.hh"
#include "machine/coherence.hh"
#include "machine/processor.hh"
#include "mem/memory.hh"
#include "net/network.hh"

namespace swex
{

class HomeController;
class Machine;

constexpr Cycles rxOccupancy = 2;         ///< CMMU receive-side serialization

class Node : public MsgReceiver, public NodeServices
{
  public:
    Node(Machine &machine, NodeId id);
    ~Node() override = default;

    NodeId id() const { return _id; }
    Machine &machine() { return _machine; }
    EventQueue &eventq();

    // ---- MsgReceiver ------------------------------------------------
    void receiveMessage(const Message &msg) override;

    // ---- NodeServices -----------------------------------------------
    void sendMsg(const Message &msg, Cycles delay) override;
    void raiseTrap(const TrapItem &item) override;
    RemovalResult invalidateLocal(Addr block_addr) override;
    RemovalResult downgradeLocal(Addr block_addr) override;
    MemoryModule &memory() override { return mem; }
    void schedule(Cycles delay, std::function<void()> fn) override;

    // ---- coherence engine --------------------------------------------
    /** The node's cache, whichever model owns it. */
    Cache &cache() { return coh->cache(); }
    const Cache &cache() const { return coh->cache(); }

    /** The node's home directory (asserts the directory model). */
    HomeController &home();
    const HomeController &home() const;

    // ---- components --------------------------------------------------
    stats::Group statsGroup;
    MemoryModule mem;
    Processor proc;
    std::unique_ptr<NodeCoherence> coh;

  private:
    void dispatchRx(const Message &msg);
    static void rxDispatchHandler(void *ctx, Message &msg);
    static void delayedSendHandler(void *ctx, Message &msg);

    Machine &_machine;
    NodeId _id;
    Tick rxFreeAt = 0;
};

} // namespace swex

#endif // SWEX_MACHINE_NODE_HH
