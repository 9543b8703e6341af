/**
 * @file
 * iSCSI PDU wire format (RFC 7143, simplified but faithful where the
 * paper's §7 "other L5Ps" argument depends on it: fixed-size BHS,
 * CRC32C header and data digests, ITT-keyed solicited data).
 *
 * Every PDU starts with the 48-byte Basic Header Segment:
 *   [0]      opcode     (SCSI Cmd 0x01, Data-Out 0x05, SCSI Resp
 *                        0x21, Data-In 0x25)
 *   [1]      flags      (bit7 F/final; Cmd: bit6 R read, bit5 W write)
 *   [2..3]   reserved   (zero — part of the magic pattern)
 *   [4]      totalAhsLength (always zero here — no AHS)
 *   [5..7]   dataSegmentLength, 24-bit big-endian
 *   [8..15]  LUN
 *   [16..19] initiator task tag (ITT)
 *   [20..23] Cmd: expected data transfer length; Data-In/-Out: TTT
 *   [32..47] Cmd: CDB (simplified: scsiOp u8, slba u64 LE, len u32 LE)
 *            Resp: [32] status
 *   [40..43] Data-In/-Out: buffer offset
 *
 * After the BHS: optional 4-byte CRC32C HeaderDigest over [0, 48),
 * then the data segment, then (iff dataSegmentLength > 0) a 4-byte
 * CRC32C DataDigest over the segment. Simplifications, documented:
 * no AHS, and no 4-byte pad of the data segment — padding would only
 * obscure the offload mechanics the model exists to study.
 */

#ifndef ANIC_ISCSI_PDU_HH
#define ANIC_ISCSI_PDU_HH

#include <optional>

#include "core/storage_pdu.hh"
#include "crypto/crc32c.hh"
#include "util/bytes.hh"

namespace anic::iscsi {

enum IscsiOpcode : uint8_t
{
    kOpScsiCmd = 0x01,
    kOpDataOut = 0x05,
    kOpScsiResp = 0x21,
    kOpDataIn = 0x25,
};

enum IscsiFlags : uint8_t
{
    kFlagFinal = 0x80,
    kFlagRead = 0x40,
    kFlagWrite = 0x20,
};

enum ScsiOp : uint8_t
{
    kScsiRead = 0x28,  // READ(10)
    kScsiWrite = 0x2a, // WRITE(10)
};

constexpr size_t kBhsSize = 48;
using core::kDigestSize;

/** Session-wide wire options (negotiated at login in real iSCSI). */
struct IscsiWireConfig
{
    bool headerDigest = true;
    bool dataDigest = true;
    size_t maxDataSegment = 128 << 10; // MaxRecvDataSegmentLength

    size_t hdgstLen() const { return headerDigest ? kDigestSize : 0; }
    size_t ddgstLen() const { return dataDigest ? kDigestSize : 0; }

    /** Total wire length of a PDU with @p dsl data-segment bytes. */
    size_t
    pduLen(size_t dsl) const
    {
        return kBhsSize + hdgstLen() + dsl + (dsl > 0 ? ddgstLen() : 0);
    }

    net::Digests digests() const { return {headerDigest, dataDigest}; }
};

/** Which offloads a session requests from the NIC. */
using IscsiOffloadConfig = core::StorageOffloadConfig;

/** iSCSI's plug-in to the shared storage-L5P layer: BHS-prefix
 *  framing, ITT + BufferOffset from the BHS, and a NIC that verifies
 *  the header digest too, folding both digests into one verdict. */
extern const core::StorageWire kIscsiWire;

/** Decoded BHS (superset of all four opcodes' fields). */
struct IscsiBhs
{
    uint8_t opcode = 0;
    uint8_t flags = 0;
    uint32_t dsl = 0; ///< data segment length
    uint64_t lun = 0;
    uint32_t itt = 0;
    uint32_t edtl = 0;         ///< Cmd: expected data transfer length
    uint32_t bufferOffset = 0; ///< Data-In/-Out
    uint8_t scsiOp = 0;        ///< Cmd CDB
    uint64_t slba = 0;         ///< Cmd CDB
    uint32_t length = 0;       ///< Cmd CDB
    uint8_t status = 0;        ///< Resp
};

/**
 * Parses + validates the first 8 bytes of a BHS: known opcode, zero
 * reserved bytes, bounded data segment. This is the iSCSI analogue
 * of the NVMe common-header magic pattern — enough to frame the PDU.
 * Returns the full wire length (BHS + digests + data) on success.
 */
std::optional<uint64_t> parseBhsPrefix(const IscsiWireConfig &wc,
                                       ByteView h,
                                       size_t maxDsl = core::kMaxStoragePdu);

/** Decodes a complete 48-byte BHS (no validation beyond size). */
IscsiBhs parseBhs(ByteView pdu);

/** Builders. All fill the header digest; the data digest of data
 *  PDUs is filled iff @p fillDdgst (dummy zeros otherwise, for the
 *  NIC tx engine to fill in-stream). */
Bytes buildScsiCmd(const IscsiWireConfig &wc, const IscsiBhs &bhs);
Bytes buildScsiResp(const IscsiWireConfig &wc, const IscsiBhs &bhs);
Bytes buildDataPdu(const IscsiWireConfig &wc, uint8_t opcode,
                   const IscsiBhs &bhs, ByteView data, bool fillDdgst);

/** Verifies the header digest (true when absent by config). */
bool verifyHdgst(const IscsiWireConfig &wc, ByteView pdu);

} // namespace anic::iscsi

#endif // ANIC_ISCSI_PDU_HH
