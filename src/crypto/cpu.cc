#include "crypto/cpu.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>

#include "crypto/kernels.hh"
#include "util/env.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define ANIC_X86_HOST 1
#endif

namespace anic::crypto {

namespace {

CpuFeatures
detectCpu()
{
    CpuFeatures f;
#ifdef ANIC_X86_HOST
    unsigned a = 0;
    unsigned b = 0;
    unsigned c = 0;
    unsigned d = 0;
    if (__get_cpuid(1, &a, &b, &c, &d)) {
        f.sse42 = (c & bit_SSE4_2) != 0;
        f.aesni = (c & bit_AES) != 0;
        f.pclmul = (c & bit_PCLMUL) != 0;
    }
    // The builtin also checks that the OS saves the 512-bit state.
    __builtin_cpu_init();
    f.vpclmul512 = __builtin_cpu_supports("avx512f") &&
                   __builtin_cpu_supports("avx512dq") &&
                   __builtin_cpu_supports("avx512vl") &&
                   __builtin_cpu_supports("vpclmulqdq");
    f.vaes512 = __builtin_cpu_supports("avx512f") &&
                __builtin_cpu_supports("avx512bw") &&
                __builtin_cpu_supports("avx512vl") &&
                __builtin_cpu_supports("vaes") &&
                __builtin_cpu_supports("vpclmulqdq");
#endif
    return f;
}

#ifdef ANIC_HAVE_X86_CRYPTO
/** The widest CRC32C and bulk GCM kernels this CPU runs; the rest of
 *  the table is fixed. Built once, so no call branches on CPUID. */
const detail::HwOps &
x86Ops()
{
    static const detail::HwOps ops = {
        detail::crc32cKernels().back().update,
        &detail::x86::aesKeyExpand,
        &detail::x86::aesEncryptBlock,
        &detail::x86::ghashInit,
        &detail::x86::ghashBlocks,
        detail::gcmKernels().back().cryptBlocks,
        detail::gcmKernels().back().ctrBlocks,
    };
    return ops;
}
#endif

/**
 * Env override: "scalar" forces the reference kernels, "hw" insists on
 * the accelerated ones (warns + falls back when unavailable), anything
 * else (or unset) auto-selects.
 */
CryptoImpl
resolveActive()
{
    const std::string &impl = util::Env::cryptoImpl();
    const char *env = impl.empty() ? nullptr : impl.c_str();
    bool supported = hwCryptoSupported();
    if (env != nullptr) {
        if (std::strcmp(env, "scalar") == 0)
            return CryptoImpl::Scalar;
        if (std::strcmp(env, "hw") == 0) {
            if (!supported) {
                std::fprintf(stderr,
                             "anic: ANIC_CRYPTO_IMPL=hw but hardware "
                             "crypto kernels are unavailable (%s); "
                             "using scalar\n",
                             hwCryptoCompiled() ? "CPU lacks AES-NI/"
                                                  "PCLMUL/SSE4.2"
                                                : "not compiled in");
                return CryptoImpl::Scalar;
            }
            return CryptoImpl::Hw;
        }
        if (std::strcmp(env, "auto") != 0)
            std::fprintf(stderr,
                         "anic: ignoring unknown ANIC_CRYPTO_IMPL=%s "
                         "(want scalar|hw)\n",
                         env);
    }
    return supported ? CryptoImpl::Hw : CryptoImpl::Scalar;
}

} // namespace

const CpuFeatures &
cpuFeatures()
{
    static const CpuFeatures f = detectCpu();
    return f;
}

const char *
cryptoImplName(CryptoImpl impl)
{
    return impl == CryptoImpl::Hw ? "hw" : "scalar";
}

bool
hwCryptoCompiled()
{
#ifdef ANIC_HAVE_X86_CRYPTO
    return true;
#else
    return false;
#endif
}

bool
hwCryptoSupported()
{
    const CpuFeatures &f = cpuFeatures();
    return hwCryptoCompiled() && f.aesni && f.pclmul && f.sse42;
}

CryptoImpl
activeCryptoImpl()
{
    static const CryptoImpl impl = resolveActive();
    return impl;
}

namespace detail {

const HwOps *
hwOpsIfSupported()
{
#ifdef ANIC_HAVE_X86_CRYPTO
    if (hwCryptoSupported())
        return &x86Ops();
#endif
    return nullptr;
}

std::span<const Crc32cKernel>
crc32cKernels()
{
    static const Crc32cKernel all[] = {
        {"scalar", &crc32cScalarUpdate},
#ifdef ANIC_HAVE_X86_CRYPTO
        {"3way", &x86::crc32cUpdate},
#ifdef ANIC_HAVE_CRC_FOLD
        {"fold", &x86::crc32cFoldUpdate},
#endif
#endif
    };
    // Each kernel needs what the one before it needs, so the usable
    // ones are a prefix.
    static const size_t usable = [] {
        const CpuFeatures &f = cpuFeatures();
        size_t cpu = f.sse42 ? (f.pclmul && f.vpclmul512 ? 3 : 2) : 1;
        return std::min(cpu, std::size(all));
    }();
    return {all, usable};
}

std::span<const GcmKernel>
gcmKernels()
{
#ifdef ANIC_HAVE_X86_CRYPTO
    static const GcmKernel all[] = {
        {"aesni", &x86::gcmCryptBlocks, &x86::ctrBlocks},
#ifdef ANIC_HAVE_VAES_GCM
        {"vaes", &x86::vaesGcmCryptBlocks, &x86::vaesCtrBlocks},
#endif
    };
    // As with CRC32C, the usable kernels are a prefix.
    static const size_t usable = [] {
        size_t cpu = hwCryptoSupported() ? (cpuFeatures().vaes512 ? 2 : 1)
                                         : 0;
        return std::min(cpu, std::size(all));
    }();
    return {all, usable};
#else
    return {};
#endif
}

const HwOps *
hwOps()
{
    static const HwOps *ops =
        activeCryptoImpl() == CryptoImpl::Hw ? hwOpsIfSupported() : nullptr;
    return ops;
}

} // namespace detail

} // namespace anic::crypto
