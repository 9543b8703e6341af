/**
 * @file
 * Kernel-TLS-style software record layer (the paper's §5.2 software
 * side). A TlsSocket wraps a TcpConnection and presents the same
 * StreamSocket interface carrying *plaintext*, so applications (and
 * the NVMe-TCP L5P, for the NVMe-TLS composition) are oblivious to
 * whether crypto runs in software or on the NIC.
 *
 * TlsSocket is a core::L5pStream over kTlsWire (the 5-byte record
 * header), as the storage endpoints are over their 8-byte prefixes:
 * record reassembly, the seq -> record map behind l5o_get_tx_msgstate
 * and the rx resync answer with its one confirm rule live there. TLS
 * keeps only the record crypto:
 *  - tx: records are framed with dummy ICVs and passed down in
 *    plaintext; the NIC encrypts in place.
 *  - rx: a record whose packets all carry the NIC's `decrypted` bit
 *    skips software crypto entirely; a partially-offloaded record is
 *    recovered by re-encrypting the NIC-decrypted ranges (CTR) and
 *    then running the normal software decrypt+authenticate path —
 *    which is why partial decryption is costlier than none (§6.4).
 *    Plaintext is delivered with the record's segment boundaries and
 *    inner offload metadata, which NVMe-TLS depends on.
 *  - sendfile: software mode allocates a per-record encryption
 *    buffer; offload mode still allocates+copies; offload+zc hands
 *    page-cache bytes straight to the NIC (user must not modify).
 */

#ifndef ANIC_TLS_KTLS_HH
#define ANIC_TLS_KTLS_HH

#include "core/l5p_stream.hh"
#include "sim/registry.hh"
#include "tcp/tcp_connection.hh"
#include "tls/record.hh"
#include "tls/tls_engine.hh"
#include "util/ring_fifo.hh"

namespace anic::tls {

/** Socket-level statistics (drives Figures 11, 13, 16-18). */
struct TlsStats
{
    sim::Counter recordsTx;
    sim::Counter recordsRx;
    sim::Counter rxFullyOffloaded;
    sim::Counter rxPartiallyOffloaded;
    sim::Counter rxNotOffloaded;
    sim::Counter tagFailures;   ///< AES-GCM tag mismatches
    sim::Counter framingErrors; ///< unparseable record headers
    sim::Counter txMsgStateUpcalls;
    sim::Counter rxResyncRequests;
    sim::Counter rxResyncConfirmed;
    sim::Counter plaintextBytesTx;
    sim::Counter plaintextBytesRx;
};

/** Links every TlsStats counter under @p scope as "<stem>.<field>". */
void linkTlsStats(sim::StatsScope &scope, const std::string &stem,
                  const TlsStats &s);

/** Per-socket TLS configuration. */
struct TlsConfig
{
    size_t recordSize = kMaxPlaintext; ///< max plaintext per record
    bool txOffload = false;
    bool rxOffload = false;
    bool zerocopySendfile = false; ///< only meaningful with txOffload

    /** Owner-level aggregate every count also lands in; sockets come
     *  and go per connection, the aggregate is what the registry
     *  publishes (per-socket stats stay available via stats()). */
    TlsStats *aggregate = nullptr;
};

/** How transmitted bytes are sourced (send vs sendfile variants). */
enum class TxMode
{
    Copy,     ///< send(): user buffer copied into the record
    Sendfile, ///< sendfile(): page-cache source, no user copy
};

/** The TLS record framing the stream layer reassembles. */
extern const net::MsgWire kTlsWire;

class TlsSocket : public tcp::StreamSocket, public core::L5pStream
{
  public:
    /**
     * Wraps an *established* connection. Keys mirror the peer's (use
     * SessionKeys::derive with the same secret on both sides).
     */
    TlsSocket(tcp::TcpConnection &conn, const SessionKeys &keys,
              TlsConfig cfg);

    /**
     * Installs NIC offload contexts (l5o_create) per the config's
     * txOffload/rxOffload flags. Must be called before any data moves
     * (i.e. right after the handshake).
     */
    void enableOffload(core::OffloadDevice &dev);

    // ------------------------------------------------ StreamSocket
    size_t send(ByteView data) override;
    size_t sendSpace() const override;
    void setOnWritable(std::function<void()> cb) override { onWritable_ = std::move(cb); }
    bool readable() const override { return !rxOut_.empty(); }
    tcp::RxSegment pop() override;
    void setOnReadable(std::function<void()> cb) override { onReadable_ = std::move(cb); }
    void
    setOnPeerClosed(std::function<void()> cb) override
    {
        conn_->setOnPeerClosed(std::move(cb));
    }
    void close() override { conn_->close(); }
    host::Core &core() override { return conn_->core(); }

    /**
     * sendfile-style transmit: @p len bytes of file content
     * (deterministically generated from @p seed at @p fileOff, i.e.
     * the page cache holds it). Returns bytes accepted.
     */
    size_t sendFile(uint64_t seed, uint64_t fileOff, size_t len);

    const TlsStats &stats() const { return stats_; }
    tcp::TcpConnection &connection() { return *conn_; }

    /**
     * Told as each rx record completes, with its index and the
     * plaintext offset where its payload starts. The NVMe-TLS
     * composition uses this to translate the NIC's inner-layer resync
     * anchors (record index, offset) into plaintext positions.
     */
    struct RecordObserver
    {
        virtual void onRecord(uint64_t recIdx, uint64_t plainOff) = 0;

      protected:
        ~RecordObserver() = default;
    };

    void setRecordObserver(RecordObserver *o) { recordObserver_ = o; }

    /** Index the next received record will get. */
    uint64_t nextRxRecordSeq() const { return assembler_.msgsDelivered(); }

    /** Whether software AES-GCM has been keyed for tx / rx. A
     *  direction the NIC fully offloads never keys it. */
    bool txCryptoKeyed() const { return txGcm_ != nullptr; }
    bool rxCryptoKeyed() const { return rxGcm_ != nullptr; }

    /** Framed record bytes TCP has not yet accepted. Zero together
     *  with an all-acked connection means no in-flight record depends
     *  on this socket's keys or NIC contexts — the safe point for a
     *  key-rotation style socket swap. */
    size_t
    txBacklog() const
    {
        return staging_ != nullptr ? staging_->size() - stagingOff_ : 0;
    }

  private:
    // ------------------------------------------------------- tx
    /** Charges the syscall and emits records of [0, len) through
     *  @p emit(off, n) while TCP takes them; returns bytes consumed. */
    template <typename Emit>
    size_t sendRecords(size_t len, Emit &&emit);
    /** Seals @p wire, a record with its header encoded, unless the NIC
     *  encrypts, and sends it. @p plaintext is the body's source: the
     *  user's buffer, or the body itself when sendfile filled it. */
    bool emitRecord(Bytes &&wire, ByteView plaintext, TxMode mode);
    void flushStaging();
    void chargeTxRecord(size_t plainLen, TxMode mode);

    // ------------------------------------------------------- rx
    void onTcpReadable();
    /** Authenticates and delivers one record; false on a tag
     *  mismatch, a fatal error. */
    bool finishRecord(core::RxMsg &rec);

    void countEvent(StreamEvent e) override;

    /** Counts into the socket stats and the configured aggregate. */
    void
    count(sim::Counter TlsStats::*m, uint64_t n = 1)
    {
        (stats_.*m) += n;
        if (cfg_.aggregate != nullptr)
            (cfg_.aggregate->*m) += n;
    }

    TlsConfig cfg_;
    SessionKeys keys_;
    // Software crypto is keyed on first use: with the NIC doing a
    // direction's crypto, its ~0.9 KiB context is never built.
    std::unique_ptr<crypto::AesGcm> txGcm_;
    std::unique_ptr<crypto::AesGcm> rxGcm_;

    // --- tx state
    uint64_t txRecSeq_ = 0;
    /** A record TCP could not accept whole; [stagingOff_, end) is
     *  still to send. Shared with TCP's send queue, and with txMap_
     *  when the NIC encrypts. */
    SharedBytes staging_;
    size_t stagingOff_ = 0;
    std::function<void()> onWritable_;

    // --- rx state
    uint64_t rxPlainOff_ = 0;
    util::RingFifo<tcp::RxSegment> rxOut_;

    std::function<void()> onReadable_;
    RecordObserver *recordObserver_ = nullptr;
    TlsStats stats_;
};

} // namespace anic::tls

#endif // ANIC_TLS_KTLS_HH
