/**
 * @file
 * The flexible coherence interface (paper Section 4.1): the API that
 * protocol extension handlers are written against. It provides
 * hardware directory manipulation, protocol message transmission, the
 * free-listing memory manager, and hash table administration, and it
 * transparently charges the cycle cost of each operation according to
 * the selected software profile (flexible C vs tuned assembly).
 *
 * All built-in handlers use this interface, and example programs can
 * register custom handlers against it (Section 7's "application
 * specific protocol" enhancement).
 */

#ifndef SWEX_CORE_COHERENCE_INTERFACE_HH
#define SWEX_CORE_COHERENCE_INTERFACE_HH

#include "base/types.hh"
#include "core/cost_model.hh"
#include "core/directory.hh"
#include "core/ext_directory.hh"
#include "core/node_services.hh"
#include "core/protocol.hh"

namespace swex
{

class HomeController;

/**
 * One instance exists per software handler invocation. Every method
 * that models work performed by the protocol software adds cycles to
 * the running total; message sends are scheduled at the cycle offset
 * at which the handler would issue them.
 */
class CoherenceInterface
{
  public:
    CoherenceInterface(HomeController &hc, const TrapItem &item);

    CoherenceInterface(const CoherenceInterface &) = delete;
    CoherenceInterface &operator=(const CoherenceInterface &) = delete;

    // --------------------------------------------------------------
    // Environment
    // --------------------------------------------------------------

    const TrapItem &item() const { return _item; }
    NodeId homeNode() const;
    int numNodes() const;
    const ProtocolConfig &protocol() const;
    bool isWrite() const { return _isWrite; }

    /** Cycles consumed so far by this handler. */
    Cycles elapsed() const { return _elapsed; }

    /** Charge @p count occurrences of activity @p a. */
    void charge(Activity a, unsigned count = 1);

    // --------------------------------------------------------------
    // Hardware directory manipulation
    // --------------------------------------------------------------

    /** Decode the hardware directory entry (charged once). */
    DirEntry &hwEntry();

    // --------------------------------------------------------------
    // Protocol message transmission
    // --------------------------------------------------------------

    /** Compose and send a data reply (ReadData or WriteData). */
    void sendData(NodeId dst, bool exclusive);

    /** Compose and send a Busy reply. */
    void sendBusy(NodeId dst, bool busy_for_write);

    /** Compose and send one invalidation. */
    void sendInv(NodeId dst);

    /**
     * Flush the home node's own cached copy (dirty data is written
     * back to home memory). Local, so no acknowledgment is needed.
     */
    void flushLocalCache();

    // --------------------------------------------------------------
    // Free-listing memory manager and hash table administration
    // --------------------------------------------------------------

    /** Hash lookup of the block's extended directory entry. */
    ExtEntry *extLookup();

    /** Lookup-or-allocate the block's extended directory entry. */
    ExtEntry &extAlloc();

    /** Release the block's extended entry back to the free list. */
    void extRelease();

    /** Record one sharer in the extension (charges per pointer). */
    void recordSharer(ExtEntry &entry, NodeId n);

    // --------------------------------------------------------------
    // Low-level access (advanced/custom protocols)
    // --------------------------------------------------------------

    HomeController &controller() { return hc; }
    MemoryModule &memory();

  private:
    /** The controller's one message builder charges sends here. */
    friend class HomeController;

    HomeController &hc;
    TrapItem _item;
    bool _isWrite;
    bool _decoded = false;
    Cycles _elapsed = 0;
    unsigned _invsSent = 0;
};

} // namespace swex

#endif // SWEX_CORE_COHERENCE_INTERFACE_HH
