/**
 * @file
 * The testbed with storage on top (used by benches, examples, tests):
 * node a is the workload generator, node b the server (DUT). The NVMe
 * drive lives on the generator and is exported to the server over
 * NVMe-TCP across the same link (§6: "the server utilizes an Optane
 * ... SSD that resides remotely, on the generator").
 */

#ifndef ANIC_APP_MACRO_WORLD_HH
#define ANIC_APP_MACRO_WORLD_HH

#include <memory>

#include "app/http.hh"
#include "app/kv.hh"
#include "core/testbed.hh"
#include "nvmetcp/target.hh"
#include "util/panic.hh"

namespace anic::app {

struct MacroWorld : core::Testbed
{
    static constexpr uint16_t kNvmePort = 4420;

    struct Config : core::Testbed::Config
    {
        Config()
        {
            a = named("gen", 101);
            a.cores = 8;
            b = named("srv", 202);
        }

        host::NvmeDrive::Config drive;
        app::StorageService::Config storage;
        bool remoteStorage = true; ///< C1: serve through NVMe-TCP
    };

    explicit MacroWorld(Config cfg)
        : Testbed(cfg), drive(sim, cfg.drive), files(cfg.drive.contentSeed)
    {
        storage = std::make_unique<app::StorageService>(b, files, cfg.storage);
        if (cfg.remoteStorage) {
            // NVMe-TCP target on the generator, one session per
            // accepted queue connection.
            nvmetcp::WireConfig wire = cfg.storage.wire;
            uint64_t tlsSecret = cfg.storage.tlsSecret;
            bool tlsTransport = cfg.storage.tlsTransport;
            a.stack().listen(
                kNvmePort, a.tcpConfig(),
                [this, wire, tlsTransport, tlsSecret](tcp::TcpConnection &c) {
                    if (tlsTransport) {
                        targetTls.push_back(std::make_unique<tls::TlsSocket>(
                            c, tls::SessionKeys::derive(tlsSecret, false),
                            tls::TlsConfig{}));
                        targets.push_back(
                            std::make_unique<nvmetcp::NvmeTarget>(
                                *targetTls.back(), drive, wire));
                    } else {
                        targets.push_back(
                            std::make_unique<nvmetcp::NvmeTarget>(c, drive,
                                                                  wire));
                    }
                });
            storage->connectRemote(kIpB, kIpA, kNvmePort);
            sim.runUntil(sim.now() + 20 * sim::kMillisecond);
            ANIC_ASSERT(storage->ready(), "NVMe queues failed to connect");
        }
    }

    /** Creates files of @p size bytes; returns their ids. */
    std::vector<uint32_t>
    makeFiles(int count, uint64_t size)
    {
        std::vector<uint32_t> ids;
        for (int i = 0; i < count; i++)
            ids.push_back(files.create(size).id);
        return ids;
    }

    host::NvmeDrive drive;
    host::FileStore files;
    std::unique_ptr<app::StorageService> storage;
    std::vector<std::unique_ptr<nvmetcp::NvmeTarget>> targets;
    std::vector<std::unique_ptr<tls::TlsSocket>> targetTls;
};

} // namespace anic::app

#endif // ANIC_APP_MACRO_WORLD_HH
