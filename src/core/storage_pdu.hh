/**
 * @file
 * The storage-L5P wire traits shared by NVMe-TCP and iSCSI. Both
 * frame digest-protected PDUs whose first 8 bytes fix the framing (a
 * net::MsgWire), and both name a data PDU's destination with a tag (NVMe
 * CID, iSCSI ITT) and a buffer offset in a fixed sub-header.
 */

#ifndef ANIC_CORE_STORAGE_PDU_HH
#define ANIC_CORE_STORAGE_PDU_HH

#include "host/storage.hh"
#include "net/msg_wire.hh"

namespace anic::core {

/** Upper bound on a storage PDU (NVMe plen, iSCSI data segment): the
 *  framing clamp every parser of untrusted prefixes applies. */
constexpr size_t kMaxStoragePdu = 2 << 20;

/** Bytes of the prefix that frame a PDU (the magic pattern). */
constexpr size_t kPduPrefixSize = 8;

/** CRC32C header and data digests. */
constexpr size_t kDigestSize = 4;

/** Largest sub-header [kPduPrefixSize, subHdrEnd) of any protocol
 *  (the iSCSI BHS); sizes the engines' constant-size header buffer. */
constexpr size_t kMaxSubHdrSize = 40;

/** Which offloads a storage session requests from the NIC. */
struct StorageOffloadConfig
{
    bool crcRx = false;
    bool copyRx = false;
    bool crcTx = false;
};

/** Placement identity of a data PDU, from its sub-header. */
struct PduTag
{
    uint32_t tag = 0;
    uint32_t bufferOffset = 0;
};

/** What one storage L5P supplies beyond its message framing. Storage
 *  wires frame with kPduPrefixSize bytes. */
struct StorageWire : net::MsgWire
{
    /** The NIC verifies the header digest too (a fixed protocol
     *  property: iSCSI folds both digests into one verdict). */
    bool nicHeaderDigest = false;
    /** Tag and buffer offset from sub-header bytes [8, subHdrEnd). */
    PduTag (*parseTag)(const uint8_t *subHdr) = nullptr;
};

/** Software check of a header digest: CRC32C of pdu[0, hdrEnd),
 *  stored little-endian right after it. */
bool headerDigestOk(ByteView pdu, size_t hdrEnd);

} // namespace anic::core

#endif // ANIC_CORE_STORAGE_PDU_HH
