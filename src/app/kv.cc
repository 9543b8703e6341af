#include "app/kv.hh"

#include "util/panic.hh"

namespace anic::app {

namespace {

/** Session-key secret both ends derive from (stands in for the
 *  handshake). */
constexpr uint64_t kTlsSecret = 0xcafe;

} // namespace

// ------------------------------------------------------------- server

KvServer::KvServer(core::Node &node, uint16_t port, StorageService &storage,
                   KvServerConfig cfg)
    : node_(node), storage_(storage), cfg_(std::move(cfg)),
      scope_(node.subScope("kv"))
{
    cfg_.tlsCfg.aggregate = &tlsAgg_;
    scope_.link("gets", stats_.gets);
    scope_.link("errors", stats_.errors);
    scope_.link("bytesSent", stats_.bytesSent);
    tls::linkTlsStats(scope_, "tls", tlsAgg_);
    node_.stack().listen(port, node_.tcpConfig(),
                         [this](tcp::TcpConnection &c) { accept(c); });
}

void
KvServer::accept(tcp::TcpConnection &c)
{
    auto conn = std::make_unique<Conn>();
    conn->srv = this;
    if (cfg_.tlsEnabled) {
        conn->tlsSock = std::make_unique<tls::TlsSocket>(
            c, tls::SessionKeys::derive(kTlsSecret, false), cfg_.tlsCfg);
        conn->tlsSock->enableOffload(node_.device());
        conn->sock = conn->tlsSock.get();
    } else {
        conn->sock = &c;
    }
    Conn *cp = conn.get();
    cp->sock->setOnReadable([cp] { cp->onReadable(); });
    cp->sock->setOnWritable([cp] { cp->pump(); });
    conns_.push_back(std::move(conn));
}

void
KvServer::Conn::onReadable()
{
    while (sock->readable()) {
        tcp::RxSegment seg = sock->pop();
        reqBuf.append(reinterpret_cast<const char *>(seg.data.data()),
                      seg.data.size());
    }
    maybeServe();
}

void
KvServer::Conn::maybeServe()
{
    if (responding)
        return;
    size_t end = reqBuf.find("\r\n");
    if (end == std::string::npos)
        return;

    host::Core &core = sock->core();
    core.charge(core.model().kvRequestCost);

    uint32_t id = 0;
    bool ok = reqBuf.rfind("GET ", 0) == 0;
    if (ok)
        id = static_cast<uint32_t>(
            std::strtoul(reqBuf.substr(4, end - 4).c_str(), nullptr, 10));
    reqBuf.erase(0, end + 2);
    if (!ok || id >= srv->storage_.files().count()) {
        srv->stats_.errors++;
        return;
    }

    value = &srv->storage_.files().get(id);
    responding = true;
    std::string h = strprintf("VALUE %llu\r\n",
                              static_cast<unsigned long long>(value->size));
    hdr.assign(h.begin(), h.end());
    hdrSent = 0;
    bodySent = 0;

    srv->storage_.fetch(*value, core, [this](bool fetched) {
        if (!fetched) {
            srv->stats_.errors++;
            responding = false;
            return;
        }
        pump();
    });
}

void
KvServer::Conn::pump()
{
    if (!responding)
        return;
    while (hdrSent < hdr.size()) {
        size_t acc = sock->send(ByteView(hdr).subspan(hdrSent));
        hdrSent += acc;
        if (acc == 0)
            return;
    }
    while (bodySent < value->size) {
        uint64_t remaining = value->size - bodySent;
        size_t acc;
        if (srv->cfg_.tlsEnabled) {
            acc = tlsSock->sendFile(value->seed, value->lba + bodySent,
                                    remaining);
        } else {
            size_t n = static_cast<size_t>(std::min<uint64_t>(65536,
                                                              remaining));
            Bytes chunk(n);
            fillDeterministic(chunk, value->seed, value->lba + bodySent);
            acc = sock->send(chunk);
        }
        bodySent += acc;
        srv->stats_.bytesSent += acc;
        if (acc == 0)
            return;
    }
    responding = false;
    srv->stats_.gets++;
    maybeServe();
}

// ------------------------------------------------------------- client

KvClient::KvClient(core::Node &node, net::IpAddr localIp,
                   net::IpAddr serverIp, uint16_t port,
                   const host::FileStore &values, KvClientConfig cfg)
    : node_(node), localIp_(localIp), serverIp_(serverIp), port_(port),
      values_(values), cfg_(std::move(cfg)), rng_(cfg_.seed),
      scope_(node.subScope("kvClient"))
{
    cfg_.tlsCfg.aggregate = &tlsAgg_;
    scope_.link("responses", stats_.responses);
    scope_.link("bodyBytes", stats_.bodyBytes);
    scope_.link("corruptions", stats_.corruptions);
    scope_.link("latencyUs", stats_.latencyUs);
    scope_.link("goodput", meter_);
    tls::linkTlsStats(scope_, "tls", tlsAgg_);
}

void
KvClient::start()
{
    for (int i = 0; i < cfg_.connections; i++) {
        auto conn = std::make_unique<Conn>();
        conn->cli = this;
        Conn *cp = conn.get();
        tcp::TcpConnection &c = node_.stack().connect(
            localIp_, serverIp_, port_, node_.tcpConfig());
        c.setOnConnected([this, cp, &c] {
            if (cfg_.tlsEnabled) {
                cp->tlsSock = std::make_unique<tls::TlsSocket>(
                    c, tls::SessionKeys::derive(kTlsSecret, true),
                    cfg_.tlsCfg);
                cp->tlsSock->enableOffload(node_.device());
                cp->sock = cp->tlsSock.get();
            } else {
                cp->sock = &c;
            }
            cp->sock->setOnReadable([cp] { cp->onReadable(); });
            cp->sendRequest();
        });
        conns_.push_back(std::move(conn));
    }
}

void
KvClient::measureStart()
{
    measuring_ = true;
    windowResponses_ = 0;
    meter_.start(node_.sim().now());
}

void
KvClient::measureStop()
{
    measuring_ = false;
    meter_.stop(node_.sim().now());
}

void
KvClient::Conn::sendRequest()
{
    uint32_t id = static_cast<uint32_t>(
        cli->rng_.below(std::min<uint64_t>(cli->cfg_.keyCount,
                                           cli->values_.count())));
    value = &cli->values_.get(id);
    std::string req = strprintf("GET %u\r\n", id);
    requestStart = cli->node_.sim().now();
    awaitingHeader = true;
    hdrBuf.clear();
    size_t sent = sock->send(
        ByteView(reinterpret_cast<const uint8_t *>(req.data()), req.size()));
    ANIC_ASSERT(sent == req.size());
}

void
KvClient::Conn::onReadable()
{
    while (sock->readable()) {
        tcp::RxSegment seg = sock->pop();
        size_t off = 0;
        if (awaitingHeader) {
            hdrBuf.append(reinterpret_cast<const char *>(seg.data.data()),
                          seg.data.size());
            size_t end = hdrBuf.find("\r\n");
            if (end == std::string::npos)
                continue;
            ANIC_ASSERT(hdrBuf.rfind("VALUE ", 0) == 0);
            bodyRemaining = std::strtoull(hdrBuf.c_str() + 6, nullptr, 10);
            bodyOffset = 0;
            awaitingHeader = false;
            size_t consumed = seg.data.size() - (hdrBuf.size() - (end + 2));
            off = consumed;
            hdrBuf.clear();
        }
        if (!awaitingHeader && off < seg.data.size()) {
            size_t n = std::min<uint64_t>(seg.data.size() - off,
                                          bodyRemaining);
            if (cli->cfg_.verifyContent &&
                !checkDeterministic(ByteView(seg.data).subspan(off, n),
                                    value->seed, value->lba + bodyOffset)) {
                cli->stats_.corruptions++;
            }
            bodyRemaining -= n;
            bodyOffset += n;
            cli->stats_.bodyBytes += n;
            cli->meter_.add(n);
            if (bodyRemaining == 0) {
                cli->stats_.responses++;
                if (cli->measuring_) {
                    cli->windowResponses_++;
                    cli->stats_.latencyUs.add(
                        sim::ticksToSeconds(cli->node_.sim().now() -
                                            requestStart) *
                        1e6);
                }
                sendRequest();
            }
        }
    }
}

} // namespace anic::app
