/**
 * @file
 * One L5P's framing rule, all the NIC needs per protocol to track its
 * messages (paper §4.3): the prefix size, the magic-pattern check that
 * decodes a prefix into a MsgFrame, and whether offload may resume
 * inside a message. core::MsgAssembler and nic::StreamFsm both frame
 * through it.
 */

#ifndef ANIC_NET_MSG_WIRE_HH
#define ANIC_NET_MSG_WIRE_HH

#include <optional>

#include "net/packet.hh"

namespace anic::net {

/** Negotiated digest options (the storage wires' framing depends on
 *  them; TLS has none). */
struct Digests
{
    bool header = true;
    bool data = true;
};

/** Framing of one message, decoded from its prefix. */
struct MsgFrame
{
    uint32_t wireLen = 0;   ///< whole message incl. digests or tag
    uint32_t dataLen = 0;   ///< data region length (TLS: plaintext)
    uint16_t dataOff = 0;   ///< start of the data region (TLS: body)
    uint16_t subHdrEnd = 0; ///< end of the sub-header (hlen / BHS)
    uint8_t type = 0;       ///< byte 0: PDU type / opcode / content type
    bool isData = false;    ///< carries a tagged data region

    uint64_t dataEnd() const { return uint64_t{dataOff} + dataLen; }

    /** Same message shape: what the mid-message resume identity rule
     *  compares besides the message index. */
    bool
    sameShape(const MsgFrame &o) const
    {
        return type == o.type && wireLen == o.wireLen &&
               dataOff == o.dataOff && dataLen == o.dataLen;
    }
};

/** Largest prefix any wire frames a message with. */
constexpr size_t kMaxPrefixSize = 8;

/** One L5P's framing rule. */
struct MsgWire
{
    L5Kind kind = L5Kind::None;
    /** Bytes of the prefix that frame a message (<= kMaxPrefixSize). */
    size_t prefixSize = 0;
    /** Magic-pattern check of the prefix; nullopt if it fails or the
     *  message exceeds the protocol's bound. */
    std::optional<MsgFrame> (*parsePrefix)(const uint8_t *prefix,
                                           Digests d) = nullptr;
    /** After out-of-sequence traffic, the NIC's rx offload may resume
     *  inside a message whose prefix it saw (CTR decryption from any
     *  offset, placement by tag); otherwise it waits for the next
     *  packet-aligned message boundary. */
    bool resumeMidMessage = true;
};

} // namespace anic::net

#endif // ANIC_NET_MSG_WIRE_HH
