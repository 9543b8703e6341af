/**
 * @file
 * Internal kernel dispatch table shared by the crypto primitives.
 *
 * The scalar reference kernels live in aes.cc/gcm.cc/crc32c.cc; the
 * hardware kernels (AES-NI, PCLMULQDQ, SSE4.2, AVX-512 VAES +
 * VPCLMULQDQ for 16-block GCM, and AVX-512 VPCLMULQDQ for CRC32C
 * folding) live in aesni_gcm.cc and crc32c_hw.cc, which are compiled
 * with per-file ISA flags only on x86 toolchains; the AVX-512 kernels
 * add a target attribute on top. This header is ISA-neutral so any
 * translation unit (including tests and benches) can include it; the
 * function pointers are resolved once at startup by cpu.cc.
 *
 * Conventions shared by both kernel sets:
 *   - AES round keys are 11 x 16 bytes in wire order (the byte
 *     sequence XORed into the state), identical between the scalar
 *     key schedule and the AES-NI one.
 *   - GHASH powers are H^1..H^16, each stored byte-reversed (ready for
 *     carry-less multiplication); the AES-NI kernel reads H^1..H^8,
 *     the VAES kernel all 16. The accumulator `y` stays in the
 *     same byte layout the scalar Ghash uses, so scalar and hardware
 *     absorbs can interleave within one message.
 *   - Counter blocks use GCM layout: 12-byte IV, 32-bit big-endian
 *     counter in bytes 12..15.
 */

#ifndef ANIC_CRYPTO_KERNELS_HH
#define ANIC_CRYPTO_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <span>

namespace anic::crypto::detail {

constexpr size_t kAesRounds = 10;
constexpr size_t kGhashPowers = 16;

struct HwOps
{
    /** Advances a raw (non-inverted) CRC32C state over @p n bytes. */
    uint32_t (*crc32cUpdate)(uint32_t crc, const uint8_t *p, size_t n);

    /** AES-128 key schedule (AESKEYGENASSIST). */
    void (*aesKeyExpand)(const uint8_t key[16], uint8_t rk[11][16]);

    /** Single-block encrypt from expanded round keys. */
    void (*aesEncryptBlock)(const uint8_t rk[11][16], const uint8_t in[16],
                            uint8_t out[16]);

    /** Computes the byte-reversed powers H^1..H^16 from the subkey H. */
    void (*ghashInit)(const uint8_t h[16], uint8_t hpow[kGhashPowers][16]);

    /** Absorbs @p nblk whole 16-byte blocks into accumulator @p y. */
    void (*ghashBlocks)(const uint8_t hpow[kGhashPowers][16], uint8_t y[16],
                        const uint8_t *data, size_t nblk);

    /**
     * Fused GCM bulk update over whole blocks: wide AES-CTR keystream,
     * XOR with @p in, and aggregated-reduction GHASH over the
     * ciphertext. Pre-increments the counter like AesGcm::ctrBlock and
     * stores the advanced counter back into @p ctr. In-place
     * (out == in) safe.
     */
    void (*gcmCryptBlocks)(const uint8_t rk[11][16],
                           const uint8_t hpow[kGhashPowers][16],
                           uint8_t ctr[16], uint8_t y[16], const uint8_t *in,
                           uint8_t *out, size_t nblk, bool encrypt);

    /**
     * CTR-only transform of whole blocks for the resync/partial-
     * offload path: block @p j uses counter value (uint32)(counter+j).
     * In-place safe.
     */
    void (*ctrBlocks)(const uint8_t rk[11][16], const uint8_t iv[12],
                      uint64_t counter, const uint8_t *in, uint8_t *out,
                      size_t nblk);
};

/**
 * The hardware kernel table, or nullptr when the scalar kernels are
 * active (not compiled in, CPU lacks the extensions, or forced via
 * ANIC_CRYPTO_IMPL=scalar). Resolved once.
 */
const HwOps *hwOps();

/** Same, ignoring the environment override (tests and benches). */
const HwOps *hwOpsIfSupported();

/** Scalar CRC32C kernel (slicing-by-8), raw-state form. */
uint32_t crc32cScalarUpdate(uint32_t crc, const uint8_t *p, size_t n);

/** One CRC32C kernel, raw-state form like HwOps::crc32cUpdate. */
struct Crc32cKernel
{
    const char *name;
    uint32_t (*update)(uint32_t crc, const uint8_t *p, size_t n);
};

/**
 * The CRC32C kernels compiled in that this CPU runs, narrowest first:
 * "scalar" (slicing-by-8), "3way" (SSE4.2 CRC32Q over three streams)
 * and "fold" (VPCLMULQDQ folding, 256 B per step).
 */
std::span<const Crc32cKernel> crc32cKernels();

/** One bulk GCM kernel, in HwOps' form. */
struct GcmKernel
{
    const char *name;
    decltype(HwOps::gcmCryptBlocks) cryptBlocks;
    decltype(HwOps::ctrBlocks) ctrBlocks;
};

/**
 * The bulk GCM kernels compiled in that this CPU runs, narrowest
 * first: "aesni" (AES-NI + PCLMULQDQ, 8 blocks per step) and "vaes"
 * (AVX-512 VAES + VPCLMULQDQ, 16 blocks per step). Empty when the
 * hardware kernels are unavailable; the scalar reference is AesGcm
 * bound to CryptoImpl::Scalar.
 */
std::span<const GcmKernel> gcmKernels();

/**
 * x^e mod P for the CRC32C polynomial P = 0x11EDC6F41, as a 64-bit
 * carry-less-multiply operand in the reflected bit order CRC32C data
 * uses: the coefficient of x^d sits at bit 63 - d. Square-and-multiply,
 * so it is cheap enough to run at compile time.
 */
constexpr uint64_t
crc32cXPowMod(unsigned e)
{
    // Normal order here (bit d holds x^d); reflected on return.
    auto mulMod = [](uint64_t a, uint64_t b) {
        uint64_t r = 0;
        for (int i = 31; i >= 0; i--) {
            r <<= 1;
            if (r & (1ull << 32))
                r ^= 0x11edc6f41ull;
            if ((b >> i) & 1)
                r ^= a;
        }
        return r;
    };
    uint64_t result = 1;
    uint64_t base = 2; // x
    for (; e != 0; e >>= 1) {
        if (e & 1)
            result = mulMod(result, base);
        base = mulMod(base, base);
    }
    uint64_t reflected = 0;
    for (int d = 0; d < 32; d++) {
        if ((result >> d) & 1)
            reflected |= 1ull << (63 - d);
    }
    return reflected;
}

/**
 * Operands that move a 16-byte lane @p distance bytes forward in the
 * stream: lane * x^(8 distance) is congruent to
 * clmul(lane.lo, early) ^ clmul(lane.hi, late). The lane's low qword
 * holds its earlier bytes (higher degrees, hence 64 more), and a
 * reflected clmul result carries one extra factor of x, hence the -1.
 */
struct Crc32cFold
{
    uint64_t early; ///< x^(8 distance + 63) mod P
    uint64_t late;  ///< x^(8 distance - 1) mod P
};

constexpr Crc32cFold
crc32cFoldConstants(unsigned distance)
{
    return {crc32cXPowMod(8 * distance + 63), crc32cXPowMod(8 * distance - 1)};
}

#ifdef ANIC_HAVE_X86_CRYPTO
// Implemented in the ISA-flagged translation units.
namespace x86 {
uint32_t crc32cUpdate(uint32_t crc, const uint8_t *p, size_t n);
#ifdef ANIC_HAVE_CRC_FOLD
uint32_t crc32cFoldUpdate(uint32_t crc, const uint8_t *p, size_t n);
#endif
void aesKeyExpand(const uint8_t key[16], uint8_t rk[11][16]);
void aesEncryptBlock(const uint8_t rk[11][16], const uint8_t in[16],
                     uint8_t out[16]);
void ghashInit(const uint8_t h[16], uint8_t hpow[kGhashPowers][16]);
void ghashBlocks(const uint8_t hpow[kGhashPowers][16], uint8_t y[16],
                 const uint8_t *data, size_t nblk);
void gcmCryptBlocks(const uint8_t rk[11][16],
                    const uint8_t hpow[kGhashPowers][16], uint8_t ctr[16],
                    uint8_t y[16], const uint8_t *in, uint8_t *out,
                    size_t nblk, bool encrypt);
void ctrBlocks(const uint8_t rk[11][16], const uint8_t iv[12],
               uint64_t counter, const uint8_t *in, uint8_t *out,
               size_t nblk);
#ifdef ANIC_HAVE_VAES_GCM
void vaesGcmCryptBlocks(const uint8_t rk[11][16],
                        const uint8_t hpow[kGhashPowers][16],
                        uint8_t ctr[16], uint8_t y[16], const uint8_t *in,
                        uint8_t *out, size_t nblk, bool encrypt);
void vaesCtrBlocks(const uint8_t rk[11][16], const uint8_t iv[12],
                   uint64_t counter, const uint8_t *in, uint8_t *out,
                   size_t nblk);
#endif
} // namespace x86
#endif // ANIC_HAVE_X86_CRYPTO

} // namespace anic::crypto::detail

#endif // ANIC_CRYPTO_KERNELS_HH
