/**
 * @file
 * NIC-side TLS engines (the crypto offload the ConnectX6-Dx ships).
 *
 * TlsTxEngine encrypts plaintext records in place and fills the ICV
 * as packets stream out; TlsRxEngine decrypts in place and verifies
 * ICVs, and can host an *inner* engine fed with the decrypted record
 * payload — that is how the NVMe-TLS composition works (§5.3): "NIC
 * HW parsing starts from Ethernet, and proceeds to parse TLS then
 * NVMe-TCP".
 */

#ifndef ANIC_TLS_TLS_ENGINE_HH
#define ANIC_TLS_TLS_ENGINE_HH

#include <memory>

#include "core/l5o.hh"
#include "nic/stream_fsm.hh"
#include "tls/record.hh"

namespace anic::tls {

/**
 * TLS static offload state for the unified l5o_create binding: the
 * session keys. Constructing one registers the TLS engine factories
 * with the driver's protocol registry.
 */
class TlsStaticState : public core::L5StaticState
{
  public:
    explicit TlsStaticState(const SessionKeys &keys);

    net::L5Kind kind() const override { return net::L5Kind::Tls; }
    const SessionKeys &keys() const { return keys_; }

  private:
    SessionKeys keys_;
};

/** State both directions share: the key and the current record's
 *  ciphertext end. Records are framed by kTlsWire. */
class TlsEngineBase : public nic::L5Engine
{
  public:
    explicit TlsEngineBase(const DirectionKeys &keys);

  protected:
    void startRecord(uint64_t recordSeq, const net::MsgFrame &frame,
                     ByteView hdr);

    crypto::AesGcm gcm_;
    Bytes staticIv_;
    size_t ctEnd_ = 0; ///< record offset where ciphertext ends
};

/** Transmit: encrypt + fill ICV (l5o tx data path). */
class TlsTxEngine : public TlsEngineBase
{
  public:
    using TlsEngineBase::TlsEngineBase;

    void onMsgStart(uint64_t msgIdx, const net::MsgFrame &frame,
                    ByteView hdr) override;
    void onMsgData(uint64_t off, ByteSpan data,
                   nic::PacketResult &res) override;
    void onMsgReplay(uint64_t off, ByteView data) override;
    void onMsgEnd(bool covered, nic::PacketResult &res) override;
    void onMsgAbort() override;

  private:
    /** Encrypts record bytes [off, off + in.size()) into @p out and
     *  writes the tag over the ICV bytes there; @p out is the same
     *  bytes in place. A replay passes null: the ciphertext goes to a
     *  stack scratch only to feed GHASH, and the tag is only computed.
     *  Returns the bytes encrypted. */
    size_t seal(uint64_t off, ByteView in, uint8_t *out);

    uint8_t tag_[kTagSize];
    bool tagReady_ = false;
};

/**
 * Receive: decrypt + verify ICV; optionally feeds an inner layer.
 *
 * Unlike transmit, the rx engine resumes *mid-record* after out-of-
 * sequence traffic: AES-GCM's CTR body permits decryption from any
 * byte offset, so subsequent packets of a disrupted record are still
 * decrypted (and marked), merely without ICV verification. This is
 * safe because a disrupted record always ends up with at least one
 * packet whose `decrypted` bit is clear (the late gap-filler), which
 * forces kTLS down the partial-offload path that re-authenticates
 * the whole record in software. Without mid-record resume, a single
 * loss would disable offloading until a record happens to start
 * exactly at a packet boundary — with 16 KiB records over 1460-byte
 * segments that is 1-in-292 records, nothing like the recovery the
 * paper measures (Figure 17b).
 */
class TlsRxEngine : public TlsEngineBase
{
  public:
    using TlsEngineBase::TlsEngineBase;

    void onMsgResume(uint64_t msgIdx, const net::MsgFrame &frame,
                     ByteView hdr, uint64_t off) override;

    /**
     * Installs an inner engine (e.g. NVMe-TCP) that consumes the
     * decrypted plaintext stream. The inner FSM's resync requests are
     * surfaced through @p innerResyncReq with the TLS-level anchor
     * (record index, offset within record plaintext).
     */
    void installInner(std::unique_ptr<nic::L5Engine> inner,
                      std::function<void(uint64_t reqId, uint64_t recIdx,
                                         uint32_t recOff)>
                          innerResyncReq,
                      uint64_t plaintextPos, uint64_t innerMsgIdx);

    /** SW->HW resync response for the inner layer. */
    void innerResyncResponse(uint64_t reqId, bool ok, uint64_t msgIdx);

    /** Propagates the counter bank to the hosted inner engine too. */
    void setStats(nic::EngineStatsBank *stats) override;

    const nic::FsmStats *innerFsmStats() const;

    void onMsgStart(uint64_t msgIdx, const net::MsgFrame &frame,
                    ByteView hdr) override;
    void onMsgData(uint64_t off, ByteSpan data,
                   nic::PacketResult &res) override;
    void onMsgEnd(bool covered, nic::PacketResult &res) override;
    void onMsgAbort() override;

  private:
    void innerNoteRecord(uint64_t msgIdx, uint64_t plainSkip);
    void innerResolveAbort(uint64_t resumeIdx, uint64_t resumeOff);

    std::array<uint8_t, 12> nonce_{};
    bool ctrOnly_ = false;        ///< resumed mid-record: no ICV check
    uint8_t tagBuf_[kTagSize];
    size_t tagHave_ = 0;
    bool pendingAbort_ = false;
    uint64_t abortRecIdx_ = 0;

    // ---- inner layer (NVMe-TLS composition)
    std::unique_ptr<nic::L5Engine> inner_;
    std::unique_ptr<nic::StreamFsm> innerFsm_;
    std::function<void(uint64_t, uint64_t, uint32_t)> innerResyncReq_;
    uint64_t innerPos_ = 0; ///< plaintext stream position
    uint64_t curRecIdx_ = 0;
    uint64_t curRecPlainStart_ = 0; ///< innerPos_ of record payload start
    bool haveSeenRecord_ = false;
    bool havePrevRec_ = false;
    uint64_t prevRecIdx_ = 0;
    uint64_t prevRecPlainStart_ = 0;
};

} // namespace anic::tls

#endif // ANIC_TLS_TLS_ENGINE_HH
