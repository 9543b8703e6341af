#include "app/http.hh"

#include "util/panic.hh"

namespace anic::app {

namespace {

constexpr size_t kPlainBodyChunk = 65536;
/** Session-key secret both ends derive from (stands in for the
 *  handshake). */
constexpr uint64_t kTlsSecret = 0x5ec;

std::string
buildResponseHeader(uint64_t contentLength)
{
    return strprintf("HTTP/1.1 200 OK\r\nServer: anic\r\n"
                     "Content-Length: %llu\r\n\r\n",
                     static_cast<unsigned long long>(contentLength));
}

} // namespace

// ------------------------------------------------------------- server

HttpServer::HttpServer(core::Node &node, uint16_t port,
                       StorageService &storage, HttpServerConfig cfg)
    : node_(node), storage_(storage), cfg_(std::move(cfg)),
      scope_(node.subScope("http"))
{
    cfg_.tlsCfg.aggregate = &tlsAgg_;
    scope_.link("requests", stats_.requests);
    scope_.link("bytesSent", stats_.bytesSent);
    scope_.link("errors", stats_.errors);
    tls::linkTlsStats(scope_, "tls", tlsAgg_);
    node_.stack().listen(port, node_.tcpConfig(),
                         [this](tcp::TcpConnection &c) { accept(c); });
}

void
HttpServer::accept(tcp::TcpConnection &c)
{
    auto conn = std::make_unique<Conn>();
    conn->srv = this;
    conn->raw = &c;
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
HttpServer::Conn::onReadable()
{
    while (sock->readable()) {
        tcp::RxSegment seg = sock->pop();
        reqBuf.append(reinterpret_cast<const char *>(seg.data.data()),
                      seg.data.size());
    }
    maybeStartRequest();
}

void
HttpServer::Conn::maybeStartRequest()
{
    if (responding)
        return;
    size_t end = reqBuf.find("\r\n\r\n");
    if (end == std::string::npos)
        return;

    host::Core &core = sock->core();
    core.charge(core.model().httpRequestCost);

    // "GET /<id> HTTP/1.1"
    uint32_t id = 0;
    bool ok = reqBuf.rfind("GET /", 0) == 0;
    if (ok) {
        size_t sp = reqBuf.find(' ', 5);
        ok = sp != std::string::npos;
        if (ok)
            id = static_cast<uint32_t>(
                std::strtoul(reqBuf.substr(5, sp - 5).c_str(), nullptr, 10));
    }
    reqBuf.erase(0, end + 4);
    if (!ok || id >= srv->storage_.files().count()) {
        srv->stats_.errors++;
        return;
    }

    file = &srv->storage_.files().get(id);
    responding = true;
    hdr.clear();
    std::string h = buildResponseHeader(file->size);
    hdr.assign(h.begin(), h.end());
    hdrSent = 0;
    bodySent = 0;

    srv->storage_.fetch(*file, core, [this](bool fetched) {
        if (!fetched) {
            srv->stats_.errors++;
            responding = false;
            return;
        }
        pump();
    });
}

void
HttpServer::Conn::pump()
{
    if (!responding)
        return;
    // Header first.
    while (hdrSent < hdr.size()) {
        size_t acc = sock->send(ByteView(hdr).subspan(hdrSent));
        hdrSent += acc;
        if (acc == 0)
            return;
    }
    // Body: sendfile semantics.
    while (bodySent < file->size) {
        uint64_t remaining = file->size - bodySent;
        size_t acc;
        if (srv->cfg_.tlsEnabled) {
            acc = tlsSock->sendFile(file->seed, file->lba + bodySent,
                                    remaining);
        } else {
            // Plain-TCP sendfile: page cache pages go to the NIC with
            // no copy; generate the content into the stream.
            size_t n = static_cast<size_t>(
                std::min<uint64_t>(kPlainBodyChunk, remaining));
            Bytes chunk(n);
            fillDeterministic(chunk, file->seed, file->lba + bodySent);
            acc = sock->send(chunk);
        }
        bodySent += acc;
        srv->stats_.bytesSent += acc;
        if (acc == 0)
            return;
    }
    responding = false;
    srv->stats_.requests++;
    maybeStartRequest();
}

// ------------------------------------------------------------- client

HttpClient::HttpClient(core::Node &node, net::IpAddr localIp,
                       net::IpAddr serverIp, uint16_t port,
                       const host::FileStore &files, HttpClientConfig cfg)
    : node_(node), localIp_(localIp), serverIp_(serverIp), port_(port),
      files_(files), cfg_(std::move(cfg)), rng_(cfg_.seed),
      scope_(node.subScope("httpClient"))
{
    ANIC_ASSERT(!cfg_.fileIds.empty(), "client needs target files");
    cfg_.tlsCfg.aggregate = &tlsAgg_;
    scope_.link("responses", stats_.responses);
    scope_.link("bodyBytes", stats_.bodyBytes);
    scope_.link("corruptions", stats_.corruptions);
    scope_.link("latencyUs", stats_.latencyUs);
    scope_.link("goodput", meter_);
    tls::linkTlsStats(scope_, "tls", tlsAgg_);
}

void
HttpClient::start()
{
    for (int i = 0; i < cfg_.connections; i++) {
        auto conn = std::make_unique<Conn>();
        conn->cli = this;
        Conn *cp = conn.get();
        conns_.push_back(std::move(conn));
        node_.sim().schedule(
            static_cast<sim::Tick>(i) * cfg_.staggerPerConn,
            [this, cp] { openConnection(*cp); });
    }
}

void
HttpClient::openConnection(Conn &conn)
{
    Conn *cp = &conn;
        tcp::TcpConnection &c = node_.stack().connect(
            localIp_, serverIp_, port_, node_.tcpConfig());
        conn.raw = &c;
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
            connected_++;
            cp->sendRequest();
        });
}

void
HttpClient::measureStart()
{
    measuring_ = true;
    windowResponses_ = 0;
    meter_.start(node_.sim().now());
}

void
HttpClient::measureStop()
{
    measuring_ = false;
    meter_.stop(node_.sim().now());
}

void
HttpClient::Conn::sendRequest()
{
    uint32_t id = cli->cfg_.fileIds[cli->rng_.below(cli->cfg_.fileIds.size())];
    file = &cli->files_.get(id);
    std::string req = strprintf("GET /%u HTTP/1.1\r\nHost: dut\r\n\r\n", id);
    requestStart = cli->node_.sim().now();
    awaitingHeader = true;
    hdrBuf.clear();
    size_t sent = sock->send(
        ByteView(reinterpret_cast<const uint8_t *>(req.data()), req.size()));
    ANIC_ASSERT(sent == req.size(), "request did not fit in send buffer");
}

void
HttpClient::Conn::onReadable()
{
    while (sock->readable()) {
        tcp::RxSegment seg = sock->pop();
        size_t off = 0;
        if (awaitingHeader) {
            hdrBuf.append(reinterpret_cast<const char *>(seg.data.data()),
                          seg.data.size());
            size_t end = hdrBuf.find("\r\n\r\n");
            if (end == std::string::npos)
                continue;
            size_t cl = hdrBuf.find("Content-Length: ");
            ANIC_ASSERT(cl != std::string::npos && cl < end);
            bodyRemaining = std::strtoull(hdrBuf.c_str() + cl + 16, nullptr,
                                          10);
            bodyOffset = 0;
            awaitingHeader = false;
            // Body bytes that arrived in the same segment.
            size_t consumed = seg.data.size() - (hdrBuf.size() - (end + 4));
            off = consumed;
            hdrBuf.clear();
        }
        if (!awaitingHeader && off < seg.data.size()) {
            size_t n = std::min<uint64_t>(seg.data.size() - off,
                                          bodyRemaining);
            if (cli->cfg_.verifyContent &&
                !checkDeterministic(ByteView(seg.data).subspan(off, n),
                                    file->seed, file->lba + bodyOffset)) {
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
