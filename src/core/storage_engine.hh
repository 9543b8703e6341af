/**
 * @file
 * NIC-side storage-L5P engines (the paper's §5.1 offloads), shared by
 * NVMe-TCP and iSCSI and parameterized by their StorageWire.
 *
 * StorageRxEngine:
 *  - CRC32C data-digest verification of data PDUs (and of the header
 *    digest where the protocol's NIC checks it), reported through the
 *    kind's per-packet verify outcome;
 *  - zero-copy placement: a tag -> block-buffer map (l5o_add_rr_state)
 *    lets the NIC DMA data straight to its buffer offset (Figure 9),
 *    recorded as placed ranges in the descriptor.
 *  Placement resumes mid-message after out-of-sequence traffic once
 *  the sub-header (tag) has been seen; digests of such PDUs are
 *  reported unchecked so software falls back.
 *
 * StorageTxEngine fills the data digest of outgoing data PDUs from the
 * running CRC as packets stream out (software sends dummy digests).
 * Header digests stay in software on tx: they cover at most 48 bytes.
 */

#ifndef ANIC_CORE_STORAGE_ENGINE_HH
#define ANIC_CORE_STORAGE_ENGINE_HH

#include <unordered_map>

#include "core/l5o.hh"
#include "core/storage_pdu.hh"
#include "crypto/crc32c.hh"

namespace anic::core {

/**
 * Static offload state for the unified l5o_create binding: the wire
 * traits plus the negotiated digests. Constructing one registers the
 * storage engine factories for the wire's kind.
 */
class StorageStaticState : public L5StaticState
{
  public:
    StorageStaticState(const StorageWire &wire, net::Digests d);

    net::L5Kind kind() const override { return wire_.kind; }
    const StorageWire &wire() const { return wire_; }
    net::Digests digests() const { return dg_; }

  private:
    const StorageWire &wire_;
    net::Digests dg_;
};

/** State shared by both directions: the wire traits and the frame of
 *  the current PDU. */
class StorageEngineBase : public nic::L5Engine
{
  public:
    StorageEngineBase(const StorageWire &wire, net::Digests d)
        : L5Engine(wire, d)
    {
    }

  protected:
    /** The storage traits of the wire this engine was built with. */
    const StorageWire &
    traits() const
    {
        return static_cast<const StorageWire &>(wire());
    }

    net::MsgFrame frame_;
};

/** Receive engine: digest verify + tag-keyed placement. */
class StorageRxEngine : public StorageEngineBase
{
  public:
    using StorageEngineBase::StorageEngineBase;

    /** l5o_add_rr_state: maps a pending command's tag to its buffer so
     *  data PDUs can be placed directly. */
    void
    addRrState(uint32_t tag, host::BlockBufferPtr buf)
    {
        rrState_[tag] = std::move(buf);
    }

    /** l5o_del_rr_state. */
    void delRrState(uint32_t tag) { rrState_.erase(tag); }

    void onMsgStart(uint64_t msgIdx, const net::MsgFrame &frame,
                    ByteView prefix) override;
    void onMsgData(uint64_t off, ByteSpan data,
                   nic::PacketResult &res) override;
    void onMsgEnd(bool covered, nic::PacketResult &res) override;
    void onMsgResume(uint64_t msgIdx, const net::MsgFrame &frame,
                     ByteView prefix, uint64_t off) override;
    void onMsgAbort() override { crcValid_ = false; }

  private:
    void beginPdu(const net::MsgFrame &frame, ByteView prefix);
    void takeSubHdr(uint64_t pos, ByteView bytes);
    bool hdrDigest() const { return traits().nicHeaderDigest && dg_.header; }

    std::unordered_map<uint32_t, host::BlockBufferPtr> rrState_;

    // Per-PDU dynamic state (constant size, as §3.2 requires).
    uint8_t subHdr_[kMaxSubHdrSize] = {}; ///< header bytes [8, subHdrEnd)
    size_t subHdrHave_ = 0;
    bool subHdrValid_ = false;
    bool subHdrDead_ = false; ///< resumed past the sub-header: no tag
    PduTag tag_;
    host::BlockBufferPtr placeTarget_; ///< shared: survives del_rr_state
    uint64_t curMsgIdx_ = 0;
    bool haveMsgIdx_ = false;
    crypto::Crc32c hdrCrc_;   ///< over [0, subHdrEnd)
    uint8_t hdgstBuf_[kDigestSize] = {};
    size_t hdgstHave_ = 0;
    bool hdrCovered_ = false; ///< saw the header from its first byte
    crypto::Crc32c dataCrc_;
    uint8_t ddgstBuf_[kDigestSize] = {};
    size_t ddgstHave_ = 0;
    bool crcValid_ = false; ///< no gap since this PDU started
};

/** Transmit engine: fills data digests of outgoing data PDUs. */
class StorageTxEngine : public StorageEngineBase
{
  public:
    using StorageEngineBase::StorageEngineBase;

    void onMsgStart(uint64_t msgIdx, const net::MsgFrame &frame,
                    ByteView prefix) override;
    void onMsgData(uint64_t off, ByteSpan data,
                   nic::PacketResult &res) override;
    void onMsgReplay(uint64_t off, ByteView data) override;
    void onMsgEnd(bool, nic::PacketResult &) override {}
    void onMsgAbort() override {}

  private:
    /** Runs the CRC over the data region of message bytes [off,
     *  off + in.size()) and writes the digest over the trailer bytes
     *  at @p out, the same bytes in place; a replay passes null and
     *  the digest is only computed. */
    void digest(uint64_t off, ByteView in, uint8_t *out);

    crypto::Crc32c crc_;
    uint8_t ddgst_[kDigestSize] = {};
    bool ddgstReady_ = false;
};

} // namespace anic::core

#endif // ANIC_CORE_STORAGE_ENGINE_HH
