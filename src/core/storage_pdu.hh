/**
 * @file
 * The storage-L5P layer shared by NVMe-TCP and iSCSI: wire traits,
 * PDU reassembly and the software side of placement and digests.
 *
 * Both protocols frame digest-protected PDUs whose first 8 bytes fix
 * the whole framing, and both name the destination buffer of a data
 * PDU with a tag (NVMe CID, iSCSI ITT) and a buffer offset carried in
 * a fixed sub-header. That is the paper's §4 split applied to our own
 * software: framing, placement and resync are written once here, and
 * a protocol plugs in with a StorageWire, which supplies only
 *  - the 8-byte prefix check (magic pattern -> PduFrame);
 *  - the sub-header parse (tag, buffer offset);
 *  - its L5Kind;
 *  - whether the NIC also verifies the header digest.
 * Traits are read once per PDU, never per byte.
 */

#ifndef ANIC_CORE_STORAGE_PDU_HH
#define ANIC_CORE_STORAGE_PDU_HH

#include <optional>
#include <vector>

#include "host/storage.hh"
#include "net/packet.hh"
#include "tcp/socket.hh"
#include "util/bytes.hh"

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

/** Negotiated digest options. */
struct Digests
{
    bool header = true;
    bool data = true;
};

/** Which offloads a storage session requests from the NIC. */
struct StorageOffloadConfig
{
    bool crcRx = false;
    bool copyRx = false;
    bool crcTx = false;
};

/** Framing of one PDU, decoded from its 8-byte prefix. */
struct PduFrame
{
    uint8_t type = 0;       ///< byte 0: PDU type / opcode
    uint32_t wireLen = 0;   ///< whole PDU incl. digests
    uint32_t dataOff = 0;   ///< start of the data region
    uint32_t dataLen = 0;   ///< data region length
    uint32_t subHdrEnd = 0; ///< end of the sub-header (hlen / BHS)
    bool isData = false;    ///< carries a tagged data region

    uint64_t dataEnd() const { return uint64_t{dataOff} + dataLen; }

    /** Same PDU shape: what the mid-message resume identity rule
     *  compares besides the message index. */
    bool
    sameShape(const PduFrame &o) const
    {
        return type == o.type && wireLen == o.wireLen &&
               dataOff == o.dataOff && dataLen == o.dataLen;
    }
};

/** Placement identity of a data PDU, from its sub-header. */
struct PduTag
{
    uint32_t tag = 0;
    uint32_t bufferOffset = 0;
};

/** What one storage L5P supplies to the shared layer. */
struct StorageWire
{
    net::L5Kind kind = net::L5Kind::None;
    /** The NIC verifies the header digest too (a fixed protocol
     *  property: iSCSI folds both digests into one verdict). */
    bool nicHeaderDigest = false;
    /** Magic-pattern check of the 8-byte prefix; nullopt if it fails
     *  or the PDU exceeds kMaxStoragePdu. */
    std::optional<PduFrame> (*parsePrefix)(const uint8_t *prefix,
                                           Digests d) = nullptr;
    /** Tag and buffer offset from sub-header bytes [8, subHdrEnd). */
    PduTag (*parseTag)(const uint8_t *subHdr) = nullptr;
};

/** A fully reassembled PDU with the offload results of its chunks. */
struct RxPdu
{
    PduFrame frame;
    Bytes bytes; ///< full wire bytes [0, wireLen)
    /** NIC-placed ranges, PDU-relative, in arrival order. */
    std::vector<net::PlacedRange> placed;
    uint32_t chunks = 0;        ///< segments that carried body bytes
    bool chunksVerified = true; ///< every chunk NIC-checked and passed

    /** True iff the NIC checked (and passed) the digests on every
     *  chunk: the "crc_ok bits of all SKBs" condition. */
    bool digestFullyOffloaded() const { return chunks > 0 && chunksVerified; }
};

/**
 * Incremental PDU reassembler: feed in-order stream segments, get
 * complete PDUs. Mirrors the in-kernel receive path, including which
 * chunks the NIC already handled. Framing loss (invalid prefix) sets
 * error().
 */
class PduAssembler
{
  public:
    PduAssembler(const StorageWire &wire, Digests d) : wire_(wire), dg_(d) {}

    /** Feeds a segment; invokes @p sink(RxPdu &&) per completed PDU. */
    template <typename Sink>
    void
    ingest(const tcp::RxSegment &seg, Sink &&sink)
    {
        size_t off = 0;
        const size_t n = seg.data.size();
        while (off < n && !error_) {
            if (!hdrComplete_) {
                off += takePrefix(seg, off);
                continue;
            }
            off += takeBody(seg, off);
            if (have_ == cur_.frame.wireLen) {
                RxPdu done = std::move(cur_);
                cur_ = RxPdu{};
                hdrComplete_ = false;
                have_ = 0;
                pduIdx_++;
                sink(std::move(done));
            }
        }
    }

    bool error() const { return error_; }

    /** Stream offset of the next unconsumed byte. */
    uint64_t streamConsumed() const { return consumed_; }

    /** Where a resync anchor is compared: the current PDU's start
     *  when mid-PDU (header or body partially collected), else the
     *  next unconsumed byte. */
    uint64_t
    boundaryOff() const
    {
        return have_ > 0 ? pduStartOff_ : consumed_;
    }

    /** PDUs fully delivered so far; echoed on resync confirmation so
     *  the NIC renumbers its messages consistently with software. */
    uint64_t pdusDelivered() const { return pduIdx_; }

  private:
    size_t takePrefix(const tcp::RxSegment &seg, size_t off);
    size_t takeBody(const tcp::RxSegment &seg, size_t off);

    const StorageWire &wire_;
    Digests dg_;
    RxPdu cur_;
    uint8_t prefix_[kPduPrefixSize] = {};
    bool hdrComplete_ = false;
    size_t have_ = 0;
    uint64_t pduStartOff_ = 0;
    uint64_t consumed_ = 0;
    uint64_t pduIdx_ = 0;
    bool error_ = false;
};

/** Byte counts of one placement-aware copy. */
struct CopyCounts
{
    uint64_t copied = 0; ///< bytes software copied
    uint64_t placed = 0; ///< bytes the NIC had already placed
};

/**
 * Placement-aware copy of the data region [dataOff, dataOff + dataLen)
 * of @p pdu into @p dst at @p bufferOffset: NIC-placed ranges are
 * skipped, the rest is memcpy'd (out-of-bounds ranges and a null
 * @p dst are counted but not written).
 */
CopyCounts copyUnplaced(RxPdu &pdu, uint64_t dataOff, uint32_t dataLen,
                        uint64_t bufferOffset, host::BlockBuffer *dst);

/** Software check of a header digest: CRC32C of pdu[0, hdrEnd),
 *  stored little-endian right after it. */
bool headerDigestOk(ByteView pdu, size_t hdrEnd);

/** Software check of the data digest following the data region. */
bool dataDigestOk(const RxPdu &pdu, uint64_t dataOff, uint32_t dataLen);

} // namespace anic::core

#endif // ANIC_CORE_STORAGE_PDU_HH
