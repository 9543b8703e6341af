/**
 * @file
 * NVMe/TCP PDU wire format (NVMe-oF TCP transport binding, simplified
 * but faithful where the paper's offload depends on it).
 *
 * Every PDU starts with the 8-byte common header:
 *   [0]    type      (CapsuleCmd 0x04, CapsuleResp 0x05,
 *                     H2CData 0x06, C2HData 0x07, R2T 0x09)
 *   [1]    flags     (bit0 HDGST present, bit1 DDGST present)
 *   [2]    hlen      (PDU header length, type-specific constant)
 *   [3]    pdo       (data offset = hlen + optional 4-byte HDGST)
 *   [4..7] plen      (total PDU length incl. digests, little-endian)
 *
 * These are exactly the paper's §5.1 magic-pattern fields: "PDU type:
 * one of only eight valid values; header length: well known constant
 * for each PDU type; header digest; data digest".
 *
 * Type-specific headers (after the common 8 bytes, little-endian):
 *   CapsuleCmd  (hlen 32): cid u16, opcode u8, rsvd u8, slba u64,
 *                          length u32, rsvd[8]
 *   CapsuleResp (hlen 24): cid u16, status u16, rsvd[12]
 *   C2H/H2CData (hlen 24): cid u16, rsvd u16, dataOffset u32,
 *                          dataLen u32, rsvd[4]
 *   R2T         (hlen 24): cid u16, ttag u16, r2tOffset u32,
 *                          r2tLength u32, rsvd[4]
 *
 * Digests are CRC32C: HDGST over [0, hlen), DDGST over the data.
 */

#ifndef ANIC_NVMETCP_PDU_HH
#define ANIC_NVMETCP_PDU_HH

#include <optional>

#include "core/storage_pdu.hh"
#include "crypto/crc32c.hh"
#include "util/bytes.hh"

namespace anic::nvmetcp {

enum PduType : uint8_t
{
    kPduCapsuleCmd = 0x04,
    kPduCapsuleResp = 0x05,
    kPduH2CData = 0x06,
    kPduC2HData = 0x07,
    kPduR2T = 0x09,
};

enum PduFlags : uint8_t
{
    kFlagHdgst = 0x01,
    kFlagDdgst = 0x02,
};

enum NvmeOpcode : uint8_t
{
    kOpWrite = 0x01,
    kOpRead = 0x02,
};

constexpr size_t kCommonHdrSize = 8;
constexpr size_t kCmdHdrSize = 32;
constexpr size_t kRespHdrSize = 24;
constexpr size_t kDataHdrSize = 24;
constexpr size_t kR2tHdrSize = 24;
using core::kDigestSize;

/** Wire-format options negotiated at queue setup (ICReq/ICResp). */
struct WireConfig
{
    bool headerDigest = true;
    bool dataDigest = true;
    size_t maxDataPerPdu = 256 << 10;
    /** Largest write range one R2T invites (MAXH2CDATA analogue);
     *  the target keeps a single R2T outstanding per command. */
    size_t maxR2tWindow = 128 << 10;

    size_t digestLen() const { return headerDigest ? kDigestSize : 0; }
    net::Digests digests() const { return {headerDigest, dataDigest}; }
};

/** Which offloads a session requests from the NIC. */
using NvmeOffloadConfig = core::StorageOffloadConfig;

/** NVMe-TCP's plug-in to the shared storage-L5P layer: common-header
 *  framing, CID + data offset from the data PDU sub-header, and no
 *  NIC header digest (at most 32 bytes; not worth offloading). */
extern const core::StorageWire kNvmeWire;

/** Decoded common header. */
struct CommonHdr
{
    uint8_t type = 0;
    uint8_t flags = 0;
    uint8_t hlen = 0;
    uint8_t pdo = 0;
    uint32_t plen = 0;

    bool hasHdgst() const { return flags & kFlagHdgst; }
    bool hasDdgst() const { return flags & kFlagDdgst; }

    /** Data region [pdo, pdo + dataLen). */
    uint32_t
    dataLen() const
    {
        uint32_t tail = hasDdgst() ? kDigestSize : 0;
        return plen - pdo - tail;
    }
};

/** Expected hlen for a PDU type (0 = unknown type). */
uint8_t hlenForType(uint8_t type);

/**
 * Parses + validates a common header: known type, matching hlen,
 * consistent pdo and plen bounds. This is the offload's speculative
 * magic-pattern check.
 */
std::optional<CommonHdr> parseCommonHdr(ByteView h,
                                       size_t maxPdu = core::kMaxStoragePdu);

/** Fields of a command capsule. */
struct CmdCapsule
{
    uint16_t cid = 0;
    uint8_t opcode = 0;
    uint64_t slba = 0;  ///< byte address on the drive (simplified LBA)
    uint32_t length = 0;
};

/** Fields of a response capsule. */
struct RespCapsule
{
    uint16_t cid = 0;
    uint16_t status = 0; ///< 0 = success
};

/** Fields of a data PDU (C2H or H2C). */
struct DataPduHdr
{
    uint16_t cid = 0;
    uint32_t dataOffset = 0;
    uint32_t dataLen = 0;
};

/**
 * Fields of an R2T PDU (hlen 24): target-to-host write credit. The
 * host may only transmit the H2CData range the target has invited
 * (NVMe/TCP §3.3.2.2). Carries no data and never a DDGST.
 */
struct R2tHdr
{
    uint16_t cid = 0;
    uint16_t ttag = 0;       ///< transfer tag echoed in H2CData
    uint32_t r2tOffset = 0;  ///< offset into the command's data buffer
    uint32_t r2tLength = 0;  ///< bytes invited
};

// -------------------------------------------------------------- builders

/** Builds a command capsule (no data). */
Bytes buildCmdCapsule(const WireConfig &wc, const CmdCapsule &cmd);

/** Builds a response capsule. */
Bytes buildRespCapsule(const WireConfig &wc, const RespCapsule &resp);

/**
 * Builds a data PDU. When @p fillDdgst is false the digest field (if
 * configured) is left zero for the NIC tx offload to fill.
 */
Bytes buildDataPdu(const WireConfig &wc, uint8_t type, const DataPduHdr &hdr,
                   ByteView data, bool fillDdgst);

/** Builds an R2T PDU (no data). */
Bytes buildR2tPdu(const WireConfig &wc, const R2tHdr &hdr);

// --------------------------------------------------------------- parsing

CmdCapsule parseCmdCapsule(ByteView pdu);
RespCapsule parseRespCapsule(ByteView pdu);
DataPduHdr parseDataPduHdr(ByteView pdu);
R2tHdr parseR2tHdr(ByteView pdu);

} // namespace anic::nvmetcp

#endif // ANIC_NVMETCP_PDU_HH
