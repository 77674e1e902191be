/**
 * @file
 * The directory machine model behind the CoherenceBackend seam: each
 * node's shared processor-side cache controller serves its misses
 * with request messages to the block's home, retries on busy replies,
 * and answers home-initiated invalidations and fetches; the node's
 * HomeController is the directory side, over the point-to-point mesh.
 */

#ifndef SWEX_MACHINE_DIRECTORY_BACKEND_HH
#define SWEX_MACHINE_DIRECTORY_BACKEND_HH

#include "base/rng.hh"
#include "core/home_controller.hh"
#include "machine/coherence.hh"

namespace swex
{

constexpr Cycles missIssueLatency = 2;     ///< detect miss + compose request
constexpr Cycles retryBase = 8;            ///< busy-retry backoff base
constexpr Cycles retryCap = 2048;

/** One node's directory-model engine: cache side + home side. */
class DirectoryNodeCoherence final : public NodeCoherence
{
  public:
    DirectoryNodeCoherence(Node &node, const MachineConfig &mc);

    void dispatchRx(const Message &msg) override;
    bool interceptSend(const Message &msg, Cycles delay) override;
    HomeController *home() override { return &homeCtrl; }

    stats::Scalar remoteReqs;        ///< requests sent to a home node
    stats::Scalar busyRetries;       ///< requests retried after busy
    stats::Scalar invsReceived;      ///< invalidations received
    stats::Scalar fetchesReceived;   ///< FetchS/FetchI received

  private:
    /** The miss becomes a request to the home after missIssueLatency. */
    void startMiss() override;
    /** A dirty eviction becomes a Writeback message to the home. */
    void writeback(const Eviction &ev) override;

    /**
     * Network messages addressed to this node's cache side.
     * @param resume_extra additional cycles before the processor
     *        resumes (used for local grants applied synchronously at
     *        directory-transition time, where the DRAM/loopback
     *        latency is charged on the resume instead)
     */
    void handleMessage(const Message &msg, Cycles resume_extra = 0);

    /** Send (or, after a busy reply, resend) the MSHR's request. */
    void sendRequest();

    HomeController homeCtrl;
    Rng rng;
    unsigned retries = 0;   ///< busy replies to the current miss

    /**
     * An invalidation for this block arrived while the read was in
     * flight (the "window of vulnerability" of Kubiatowicz et al.):
     * the home serialized our read before the conflicting write, so
     * the arriving data may legitimately satisfy this one access, but
     * must not be cached.
     */
    bool readInvalidated = false;

    /** Busy-backoff retransmission of the MSHR's request. */
    MemberEvent<&DirectoryNodeCoherence::sendRequest> retryEvent{
        *this, EventPrio::Processor};
};

/** The directory machine model. */
class DirectoryBackend final : public CoherenceBackend
{
  public:
    explicit DirectoryBackend(Machine &m) : _m(m) {}

    std::string protocolName() const override;
    std::unique_ptr<NodeCoherence> makeNode(Node &node) override;
    std::string stallSummary() const override;
    std::uint64_t trafficMessages() const override;

  private:
    Machine &_m;
};

} // namespace swex

#endif // SWEX_MACHINE_DIRECTORY_BACKEND_HH
