/**
 * @file
 * Coherence protocol messages exchanged between nodes. The CMMU on
 * each node synthesizes these; the mesh network transports them.
 */

#ifndef SWEX_NET_MESSAGE_HH
#define SWEX_NET_MESSAGE_HH

#include <cstdint>
#include <string>

#include "base/types.hh"
#include "mem/block.hh"

namespace swex
{

/**
 * Protocol message types. Requests travel cache-side -> home; data and
 * control replies travel home -> cache-side; Fetch* implement
 * home-initiated recall of a dirty block from its owner.
 */
enum class MsgType : std::uint8_t
{
    ReadReq,     ///< cache requests a shared (read-only) copy
    WriteReq,    ///< cache requests an exclusive (read-write) copy
    ReadData,    ///< home grants a shared copy (carries data)
    WriteData,   ///< home grants an exclusive copy (carries data)
    Inv,         ///< home tells a sharer to drop its copy
    InvAck,      ///< sharer acknowledges an invalidation
    Busy,        ///< home is mid-transaction; requester must retry
    FetchS,      ///< home asks owner for data; owner downgrades to S
    FetchI,      ///< home asks owner for data; owner invalidates
    FetchReply,  ///< owner's answer to FetchS/FetchI (may lack data)
    Writeback,   ///< owner evicts a dirty block (carries data)
    NumTypes
};

/** Printable name for a message type. */
const char *msgTypeName(MsgType t);

/** One protocol message. */
struct Message
{
    MsgType type = MsgType::ReadReq;
    NodeId src = invalidNode;
    NodeId dst = invalidNode;
    Addr addr = 0;             ///< block-aligned address
    DataBlock data;            ///< payload; valid iff hasData
    bool hasData = false;
    bool isWrite = false;      ///< for Busy/FetchReply: original intent

    /**
     * Fetch transaction tag: FetchS/FetchI carry the directory's
     * current fetch sequence number and FetchReply echoes it, letting
     * the home discard replies from superseded transactions (part of
     * closing the window of vulnerability).
     */
    std::uint8_t seq = 0;

    /**
     * Delivery-layer sequence number, per (src, dst) channel. Only
     * assigned when fault injection is active; the protocol layer
     * never reads it. Rides in the existing header flits, so it adds
     * no network occupancy.
     */
    std::uint32_t dseq = 0;

    /**
     * Message length in 16-bit network flits: 3 header/address flits
     * plus 8 flits for a 16-byte data payload.
     */
    unsigned
    flits() const
    {
        return 3 + (hasData ? blockBytes / 2 : 0);
    }

    std::string describe() const;
};

} // namespace swex

#endif // SWEX_NET_MESSAGE_HH
