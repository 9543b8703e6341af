/**
 * @file
 * google-benchmark microbenchmarks of the crypto substrate (wall-
 * clock throughput of this library's software implementations). Not
 * a paper artifact; used to confirm the simulator's data path is fast
 * enough to push hundreds of megabytes through the benches.
 *
 * Every kernel variant compiled into the binary is registered (scalar
 * always; hw when the CPU supports AES-NI/PCLMUL/SSE4.2; each CRC32C
 * kernel the CPU runs: scalar, 3way, fold), and a summary at the end
 * reports hw-over-scalar speedups, the fold-over-3way CRC32C and
 * vaes-over-aesni GCM ratios and JSON records, so the dispatch
 * layer's win is visible in one run. The payload generator's word kernels (util/bytes.hh), which
 * every experiment runs over every delivered byte, are measured the
 * same way: wide over portable.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_cli.hh"
#include "crypto/aes.hh"
#include "crypto/cpu.hh"
#include "crypto/crc32c.hh"
#include "crypto/gcm.hh"
#include "crypto/kernels.hh"
#include "util/bytes.hh"

namespace {

using namespace anic;
using namespace anic::crypto;

std::vector<CryptoImpl>
impls()
{
    std::vector<CryptoImpl> v{CryptoImpl::Scalar};
    if (hwCryptoSupported())
        v.push_back(CryptoImpl::Hw);
    return v;
}

uint32_t
crcCompute(const detail::Crc32cKernel &k, ByteView data)
{
    return ~k.update(0xffffffffu, data.data(), data.size());
}

/** The kernel named @p name, or nullptr if this CPU lacks it. */
template <typename Kernel>
const Kernel *
kernelNamed(std::span<const Kernel> kernels, const char *name)
{
    for (const Kernel &k : kernels) {
        if (std::strcmp(k.name, name) == 0)
            return &k;
    }
    return nullptr;
}

void
BM_Crc32c(benchmark::State &state, const detail::Crc32cKernel *k)
{
    Bytes data(static_cast<size_t>(state.range(0)));
    fillDeterministic(data, 1, 0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(crcCompute(*k, data));
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            state.range(0));
}

void
BM_AesGcmSeal(benchmark::State &state, CryptoImpl impl)
{
    Bytes key(16, 0x11);
    Bytes iv(12, 0x22);
    Bytes pt(static_cast<size_t>(state.range(0)));
    fillDeterministic(pt, 2, 0);
    AesGcm gcm(key, impl);
    for (auto _ : state) {
        benchmark::DoNotOptimize(gcm.seal(iv, {}, pt));
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            state.range(0));
}

void
BM_AesGcmStreamDecrypt(benchmark::State &state, CryptoImpl impl)
{
    Bytes key(16, 0x11);
    Bytes iv(12, 0x22);
    Bytes pt(16384);
    fillDeterministic(pt, 3, 0);
    AesGcm gcm(key, impl);
    Bytes sealed = gcm.seal(iv, {}, pt);
    Bytes out(pt.size());
    for (auto _ : state) {
        gcm.start(iv, {});
        // Packet-sized chunks, like the NIC engine sees them.
        size_t off = 0;
        while (off < pt.size()) {
            size_t n = std::min<size_t>(1460, pt.size() - off);
            gcm.decryptUpdate(ByteView(sealed).subspan(off, n),
                              ByteSpan(out).subspan(off, n));
            off += n;
        }
        benchmark::DoNotOptimize(
            gcm.checkTag(ByteView(sealed).subspan(pt.size())));
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(pt.size()));
}

void
BM_AesCtrAtOffset(benchmark::State &state, CryptoImpl impl)
{
    Bytes key(16, 0x11);
    Bytes iv(12, 0x22);
    Aes128 aes(key);
    Bytes data(16384);
    for (auto _ : state) {
        aesGcmCtrAtOffset(aes, iv, 4096, data, impl);
        benchmark::DoNotOptimize(data.data());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 16384);
}

void
BM_PayloadFill(benchmark::State &state, const util::PayloadKernel *k)
{
    Bytes data(static_cast<size_t>(state.range(0)));
    uint64_t block = 0;
    for (auto _ : state) {
        k->fillWords(data.data(), data.size() / 8, 5, block++);
        benchmark::DoNotOptimize(data.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            state.range(0));
}

void
BM_PayloadCheck(benchmark::State &state, const util::PayloadKernel *k)
{
    Bytes data(static_cast<size_t>(state.range(0)));
    fillDeterministic(data, 5, 0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            k->diffWords(data.data(), data.size() / 8, 5, 0));
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            state.range(0));
}

void
registerAll()
{
    for (const detail::Crc32cKernel &k : detail::crc32cKernels()) {
        char name[64];
        std::snprintf(name, sizeof name, "BM_Crc32c/%s", k.name);
        benchmark::RegisterBenchmark(name, BM_Crc32c, &k)
            ->Arg(1460)
            ->Arg(65536)
            ->Arg(262144);
    }
    for (CryptoImpl impl : impls()) {
        const char *nm = cryptoImplName(impl);
        char name[64];
        std::snprintf(name, sizeof name, "BM_AesGcmSeal/%s", nm);
        benchmark::RegisterBenchmark(name, BM_AesGcmSeal, impl)
            ->Arg(1460)
            ->Arg(16384);
        std::snprintf(name, sizeof name, "BM_AesGcmStreamDecrypt/%s", nm);
        benchmark::RegisterBenchmark(name, BM_AesGcmStreamDecrypt, impl);
        std::snprintf(name, sizeof name, "BM_AesCtrAtOffset/%s", nm);
        benchmark::RegisterBenchmark(name, BM_AesCtrAtOffset, impl);
    }
    for (const util::PayloadKernel &k : util::payloadKernels()) {
        char name[64];
        std::snprintf(name, sizeof name, "BM_PayloadFill/%s", k.name);
        benchmark::RegisterBenchmark(name, BM_PayloadFill, &k)
            ->Arg(1448)
            ->Arg(65536);
        std::snprintf(name, sizeof name, "BM_PayloadCheck/%s", k.name);
        benchmark::RegisterBenchmark(name, BM_PayloadCheck, &k)
            ->Arg(1448)
            ->Arg(65536);
    }
}

// --------------------------------------------------------- summary

/** Runs @p work repeatedly for ~0.25 s; returns bytes per second. */
template <typename Fn>
double
throughput(size_t bytesPerCall, Fn work)
{
    using clock = std::chrono::steady_clock;
    // Warm up (tables, branch predictors).
    work();
    uint64_t calls = 0;
    auto t0 = clock::now();
    double elapsed = 0;
    do {
        for (int i = 0; i < 8; i++)
            work();
        calls += 8;
        elapsed = std::chrono::duration<double>(clock::now() - t0).count();
    } while (elapsed < 0.25);
    return static_cast<double>(calls) *
           static_cast<double>(bytesPerCall) / elapsed;
}

double
crcThroughput(const detail::Crc32cKernel &k, size_t len)
{
    Bytes data(len);
    fillDeterministic(data, 1, 0);
    return throughput(len, [&k, &data] {
        benchmark::DoNotOptimize(crcCompute(k, data));
    });
}

void
speedupSummary(sim::RunContext &ctx)
{
    if (!hwCryptoSupported()) {
        ctx.print("\nhw kernels unavailable (%s); scalar only\n",
                  hwCryptoCompiled() ? "CPU lacks AES-NI/PCLMUL/SSE4.2"
                                     : "not compiled in");
        return;
    }

    ctx.print("\n-- hw vs scalar speedup --\n");

    auto gcmSeal = [](CryptoImpl impl, size_t len) {
        Bytes key(16, 0x11);
        Bytes iv(12, 0x22);
        Bytes pt(len);
        fillDeterministic(pt, 2, 0);
        AesGcm gcm(key, impl);
        Bytes out(len + AesGcm::kTagSize);
        return throughput(len, [&gcm, &iv, &pt, &out, len] {
            gcm.start(iv, {});
            gcm.encryptUpdate(pt, ByteSpan(out.data(), len));
            gcm.finishTag(ByteSpan(out.data() + len, AesGcm::kTagSize));
        });
    };
    auto crc = [](CryptoImpl impl, size_t len) {
        return crcThroughput(impl == CryptoImpl::Hw
                                 ? detail::crc32cKernels().back()
                                 : detail::crc32cKernels().front(),
                             len);
    };

    struct Row
    {
        const char *name;
        const char *tag;
        size_t len;
        bool gcm;
    };
    static const Row rows[] = {
        {"aes-gcm seal 1460B", "gcm1460", 1460, true},
        {"aes-gcm seal 16KiB", "gcm16k", 16384, true},
        {"crc32c 1460B", "crc1460", 1460, false},
        {"crc32c 256KiB", "crc256k", 262144, false},
    };
    for (const Row &r : rows) {
        double scalar = r.gcm ? gcmSeal(CryptoImpl::Scalar, r.len)
                              : crc(CryptoImpl::Scalar, r.len);
        double hw =
            r.gcm ? gcmSeal(CryptoImpl::Hw, r.len) : crc(CryptoImpl::Hw, r.len);
        double speedup = scalar > 0 ? hw / scalar : 0;
        ctx.print("%-20s scalar %8.0f MB/s   hw %8.0f MB/s   %5.1fx\n",
                  r.name, scalar / 1e6, hw / 1e6, speedup);
        anic::bench::jsonRecord(ctx, "crypto_micro",
                                (std::string(r.tag) + "_speedup").c_str(),
                                speedup);
        anic::bench::jsonRecord(ctx, "crypto_micro",
                                (std::string(r.tag) + "_hw_mbps").c_str(),
                                hw / 1e6);
    }
}

void
crcFoldSummary(sim::RunContext &ctx)
{
    const detail::Crc32cKernel *threeWay =
        kernelNamed(detail::crc32cKernels(), "3way");
    const detail::Crc32cKernel *fold =
        kernelNamed(detail::crc32cKernels(), "fold");
    if (threeWay == nullptr || fold == nullptr) {
        ctx.print("\ncrc32c fold kernel unavailable (needs AVX-512F/DQ/VL "
                  "+ VPCLMULQDQ)\n");
        return;
    }
    ctx.print("\n-- crc32c fold vs 3way --\n");
    struct Row
    {
        const char *name;
        const char *tag;
        size_t len;
    };
    static const Row rows[] = {
        {"crc32c 1460B", "crc_fold1460", 1460},
        {"crc32c 64KiB", "crc_fold64k", 65536},
        {"crc32c 256KiB", "crc_fold256k", 262144},
    };
    for (const Row &r : rows) {
        double base = crcThroughput(*threeWay, r.len);
        double fast = crcThroughput(*fold, r.len);
        double ratio = base > 0 ? fast / base : 0;
        ctx.print("%-20s 3way %6.1f GB/s   fold %6.1f GB/s   %5.2fx\n",
                  r.name, base / 1e9, fast / 1e9, ratio);
        anic::bench::jsonRecord(ctx, "crypto_micro",
                                (std::string(r.tag) + "_over_3way").c_str(),
                                ratio);
    }
}

void
gcmKernelSummary(sim::RunContext &ctx)
{
    const detail::GcmKernel *aesni = kernelNamed(detail::gcmKernels(), "aesni");
    const detail::GcmKernel *vaes = kernelNamed(detail::gcmKernels(), "vaes");
    if (aesni == nullptr || vaes == nullptr) {
        ctx.print("\naes-gcm vaes kernel unavailable (needs AVX-512F/BW/VL "
                  "+ VAES + VPCLMULQDQ)\n");
        return;
    }
    ctx.print("\n-- aes-gcm vaes vs aesni --\n");
    Bytes key(16, 0x11);
    Aes128 aes(key);
    alignas(16) uint8_t rk[Aes128::kRounds + 1][16];
    aes.exportRoundKeys(rk);
    uint8_t h[16] = {0};
    aes.encryptBlock(h, h);
    alignas(16) uint8_t hpow[detail::kGhashPowers][16];
    detail::hwOpsIfSupported()->ghashInit(h, hpow);

    // The kernels' share of a seal: the message's whole blocks,
    // encrypted in place.
    auto seal = [&rk, &hpow](const detail::GcmKernel &k, size_t len) {
        Bytes data(len);
        fillDeterministic(data, 2, 0);
        size_t nblk = len / 16;
        return throughput(nblk * 16, [&] {
            uint8_t ctr[16] = {0};
            uint8_t y[16] = {0};
            k.cryptBlocks(rk, hpow, ctr, y, data.data(), data.data(), nblk,
                          true);
            benchmark::DoNotOptimize(data.data());
            benchmark::DoNotOptimize(y);
            benchmark::ClobberMemory();
        });
    };
    struct Row
    {
        const char *name;
        const char *tag;
        size_t len;
    };
    static const Row rows[] = {
        {"aes-gcm seal 1460B", "gcm_vaes1460", 1460},
        {"aes-gcm seal 16KiB", "gcm_vaes16k", 16384},
    };
    for (const Row &r : rows) {
        double base = seal(*aesni, r.len);
        double fast = seal(*vaes, r.len);
        double ratio = base > 0 ? fast / base : 0;
        ctx.print("%-20s aesni %5.2f GB/s   vaes %5.2f GB/s   %5.2fx\n",
                  r.name, base / 1e9, fast / 1e9, ratio);
        anic::bench::jsonRecord(ctx, "crypto_micro",
                                (std::string(r.tag) + "_over_aesni").c_str(),
                                ratio);
    }
}

void
payloadSummary(sim::RunContext &ctx)
{
    auto kernels = util::payloadKernels();
    const util::PayloadKernel &portable = kernels.front();
    const util::PayloadKernel &wide = kernels.back();
    if (kernels.size() < 2) {
        ctx.print("\npayload kernels: portable only\n");
        return;
    }
    ctx.print("\n-- payload %s vs %s --\n", wide.name, portable.name);

    auto fill = [](const util::PayloadKernel &k, size_t len) {
        Bytes data(len);
        return throughput(len, [&k, &data] {
            k.fillWords(data.data(), data.size() / 8, 5, 0);
            benchmark::DoNotOptimize(data.data());
            benchmark::ClobberMemory();
        });
    };
    auto check = [](const util::PayloadKernel &k, size_t len) {
        Bytes data(len);
        fillDeterministic(data, 5, 0);
        return throughput(len, [&k, &data] {
            benchmark::DoNotOptimize(
                k.diffWords(data.data(), data.size() / 8, 5, 0));
        });
    };

    struct Row
    {
        const char *name;
        const char *tag;
        size_t len;
        bool fill;
    };
    static const Row rows[] = {
        {"fill 1448B", "payload_fill1448", 1448, true},
        {"fill 64KiB", "payload_fill64k", 65536, true},
        {"check 1448B", "payload_check1448", 1448, false},
        {"check 64KiB", "payload_check64k", 65536, false},
    };
    for (const Row &r : rows) {
        double base = r.fill ? fill(portable, r.len) : check(portable, r.len);
        double fast = r.fill ? fill(wide, r.len) : check(wide, r.len);
        double speedup = base > 0 ? fast / base : 0;
        ctx.print("%-20s %s %5.3f ns/B   %s %5.3f ns/B   %5.1fx\n", r.name,
                  portable.name, 1e9 / base, wide.name, 1e9 / fast,
                  speedup);
        anic::bench::jsonRecord(ctx, "crypto_micro",
                                (std::string(r.tag) + "_speedup").c_str(),
                                speedup);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    registerAll();
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    sim::RunContext ctx;
    speedupSummary(ctx);
    crcFoldSummary(ctx);
    gcmKernelSummary(ctx);
    payloadSummary(ctx);
    anic::bench::flushRun(ctx);
    return 0;
}
