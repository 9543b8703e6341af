/**
 * @file
 * One-time CPU feature detection and crypto kernel selection.
 *
 * The crypto primitives (AES-GCM, GHASH, CRC32C) exist in two builds:
 * the portable scalar reference kernels and, on x86 machines whose
 * compiler and CPU support it, hardware kernels using AES-NI,
 * PCLMULQDQ and SSE4.2. Selection happens once at startup:
 *
 *   - compile time: the accelerated translation units are only built
 *     when the toolchain targets x86 and accepts the ISA flags
 *     (ANIC_HAVE_X86_CRYPTO);
 *   - run time: CPUID must report the extensions; within the hardware
 *     set, bulk AES-GCM runs 16 blocks per step with VAES when CPUID
 *     also reports AVX-512 VAES and VPCLMULQDQ (else the AES-NI
 *     kernel), and CRC32C folds with VPCLMULQDQ when CPUID reports
 *     AVX-512 and VPCLMULQDQ (else the SSE4.2 3-way kernel);
 *   - override: ANIC_CRYPTO_IMPL=scalar|hw forces a kernel (a forced
 *     "hw" on an unsupported machine warns and falls back to scalar).
 *
 * Which kernel runs never changes simulated results: both produce
 * bit-identical tags/CRCs and the simulator's accounted cycle costs
 * come from the cycle model, not wall-clock.
 */

#ifndef ANIC_CRYPTO_CPU_HH
#define ANIC_CRYPTO_CPU_HH

namespace anic::crypto {

/** ISA extensions reported by CPUID (all false on non-x86). */
struct CpuFeatures
{
    bool aesni = false;
    bool pclmul = false;
    bool sse42 = false;
    /** AVX-512F/DQ/VL and VPCLMULQDQ, with OS support for the
     *  512-bit state: what the folding CRC32C kernel needs. */
    bool vpclmul512 = false;
    /** AVX-512F/BW/VL, VAES and VPCLMULQDQ, with OS support for the
     *  512-bit state: what the 16-block GCM kernel needs. */
    bool vaes512 = false;
};

/** Detected once, cached for the process lifetime. */
const CpuFeatures &cpuFeatures();

enum class CryptoImpl
{
    Scalar, ///< portable reference kernels
    Hw,     ///< AES-NI or VAES GCM; SSE4.2 or VPCLMULQDQ CRC32C
};

const char *cryptoImplName(CryptoImpl impl);

/** True when the accelerated translation units were compiled in. */
bool hwCryptoCompiled();

/** True when compiled in AND this CPU reports AES-NI+PCLMUL+SSE4.2. */
bool hwCryptoSupported();

/**
 * The kernel set new crypto contexts bind to: hardware when supported,
 * subject to the ANIC_CRYPTO_IMPL environment override. Resolved on
 * first use and constant afterwards.
 */
CryptoImpl activeCryptoImpl();

inline const char *
activeCryptoImplName()
{
    return cryptoImplName(activeCryptoImpl());
}

} // namespace anic::crypto

#endif // ANIC_CRYPTO_CPU_HH
