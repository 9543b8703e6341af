/**
 * @file
 * Hardware CRC32C using the SSE4.2 CRC32 instruction. A single
 * dependent chain of CRC32Q retires one 8-byte step every ~3 cycles,
 * so large buffers are split into three independent streams whose
 * partial CRCs are recombined with precomputed zero-extension
 * operators (the classic "shift by N zero bytes" GF(2) matrix trick,
 * built once at startup by repeated matrix squaring). Three stream
 * block sizes cover large buffers, mid-size PDUs, and packet-sized
 * tails. Compiled with -msse4.2 for this file only; reached through
 * the dispatch table in cpu.cc.
 *
 * A second kernel, for CPUs with AVX-512 and VPCLMULQDQ, folds instead
 * of chaining CRC32Q: four 512-bit accumulators each carry four
 * 16-byte lanes, and every step multiplies each lane by x^(8*256)
 * modulo P with carry-less multiplies and XORs in the next 256 bytes.
 * The accumulators then collapse into one 16-byte lane whose CRC
 * equals the CRC of everything folded; two CRC32Q finish it.
 */

#ifdef ANIC_HAVE_CRC_FOLD
#include <immintrin.h>
#endif
#include <nmmintrin.h>

#include <cstring>

#include "crypto/kernels.hh"

namespace anic::crypto::detail::x86 {

namespace {

constexpr uint32_t kPolyReflected = 0x82f63b78u;

// Stream block sizes for the 3-way interleave. Each tier processes
// 3*size bytes per pass; smaller tiers mop up what the bigger ones
// leave so packet-sized inputs (~1.5 KiB) still interleave.
constexpr size_t kLongBlock = 8192;
constexpr size_t kShortBlock = 256;
constexpr size_t kMiniBlock = 64;

/** vec * mat over GF(2): mat rows are the images of each input bit. */
inline uint32_t
gf2MatrixTimes(const uint32_t mat[32], uint32_t vec)
{
    uint32_t sum = 0;
    for (int i = 0; vec != 0; i++, vec >>= 1) {
        if (vec & 1)
            sum ^= mat[i];
    }
    return sum;
}

inline void
gf2MatrixSquare(uint32_t square[32], const uint32_t mat[32])
{
    for (int i = 0; i < 32; i++)
        square[i] = gf2MatrixTimes(mat, mat[i]);
}

/**
 * Byte-indexed operator advancing a raw CRC over @p len zero bytes:
 * crc' = t[0][crc&0xff] ^ t[1][..] ^ t[2][..] ^ t[3][crc>>24].
 * Combining streams: crc(A||B) = shift(crc(A), len(B)) ^ crcFromZero(B).
 */
struct ZeroShift
{
    uint32_t t[4][256];

    explicit ZeroShift(size_t len)
    {
        // Operator for one zero *bit* (the CRC register step), then
        // square up to one byte, then to len bytes.
        uint32_t odd[32];
        uint32_t even[32];
        odd[0] = kPolyReflected;
        uint32_t row = 1;
        for (int i = 1; i < 32; i++) {
            odd[i] = row;
            row <<= 1;
        }
        gf2MatrixSquare(even, odd); // 2 bits
        gf2MatrixSquare(odd, even); // 4 bits

        const uint32_t *op = nullptr;
        do {
            gf2MatrixSquare(even, odd); // 8, 32, 128, ... bits
            len >>= 1;
            op = even;
            if (len == 0)
                break;
            gf2MatrixSquare(odd, even);
            len >>= 1;
            op = odd;
        } while (len != 0);

        for (uint32_t n = 0; n < 256; n++) {
            t[0][n] = gf2MatrixTimes(op, n);
            t[1][n] = gf2MatrixTimes(op, n << 8);
            t[2][n] = gf2MatrixTimes(op, n << 16);
            t[3][n] = gf2MatrixTimes(op, n << 24);
        }
    }

    uint32_t shift(uint32_t crc) const
    {
        return t[0][crc & 0xff] ^ t[1][(crc >> 8) & 0xff] ^
               t[2][(crc >> 16) & 0xff] ^ t[3][crc >> 24];
    }
};

struct ShiftTables
{
    ZeroShift longShift{kLongBlock};
    ZeroShift shortShift{kShortBlock};
    ZeroShift miniShift{kMiniBlock};
};

const ShiftTables &
shiftTables()
{
    static const ShiftTables t;
    return t;
}

inline uint64_t
load64(const uint8_t *p)
{
    uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

/** One 3-way interleaved pass over 3*block bytes starting at @p p. */
template <size_t Block>
inline uint32_t
crc3way(const ZeroShift &zs, uint32_t crc, const uint8_t *p)
{
    uint64_t c0 = crc;
    uint64_t c1 = 0;
    uint64_t c2 = 0;
    for (size_t i = 0; i < Block; i += 8) {
        c0 = _mm_crc32_u64(c0, load64(p + i));
        c1 = _mm_crc32_u64(c1, load64(p + Block + i));
        c2 = _mm_crc32_u64(c2, load64(p + 2 * Block + i));
    }
    crc = zs.shift(static_cast<uint32_t>(c0)) ^ static_cast<uint32_t>(c1);
    crc = zs.shift(crc) ^ static_cast<uint32_t>(c2);
    return crc;
}

} // namespace

uint32_t
crc32cUpdate(uint32_t crc, const uint8_t *p, size_t n)
{
    if (n == 0)
        return crc;
    const ShiftTables &ts = shiftTables();

    // Align to 8 bytes so the wide loops load aligned-ish words.
    while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
        crc = _mm_crc32_u8(crc, *p++);
        n--;
    }
    while (n >= 3 * kLongBlock) {
        crc = crc3way<kLongBlock>(ts.longShift, crc, p);
        p += 3 * kLongBlock;
        n -= 3 * kLongBlock;
    }
    while (n >= 3 * kShortBlock) {
        crc = crc3way<kShortBlock>(ts.shortShift, crc, p);
        p += 3 * kShortBlock;
        n -= 3 * kShortBlock;
    }
    while (n >= 3 * kMiniBlock) {
        crc = crc3way<kMiniBlock>(ts.miniShift, crc, p);
        p += 3 * kMiniBlock;
        n -= 3 * kMiniBlock;
    }
    uint64_t c = crc;
    while (n >= 8) {
        c = _mm_crc32_u64(c, load64(p));
        p += 8;
        n -= 8;
    }
    crc = static_cast<uint32_t>(c);
    while (n > 0) {
        crc = _mm_crc32_u8(crc, *p++);
        n--;
    }
    return crc;
}

#ifdef ANIC_HAVE_CRC_FOLD

namespace {

#define ANIC_FOLD_TARGET                                                       \
    __attribute__((target("avx512f,avx512dq,avx512vl,vpclmulqdq,pclmul,"      \
                          "sse4.2")))

constexpr size_t kFoldBlock = 256;
constexpr Crc32cFold kFold256 = crc32cFoldConstants(kFoldBlock);
constexpr Crc32cFold kFold64 = crc32cFoldConstants(64);
constexpr Crc32cFold kFold48 = crc32cFoldConstants(48);
constexpr Crc32cFold kFold32 = crc32cFoldConstants(32);
constexpr Crc32cFold kFold16 = crc32cFoldConstants(16);

/** @p k in every 128-bit lane: early operand low, late operand high. */
ANIC_FOLD_TARGET inline __m512i
foldOperand(Crc32cFold k)
{
    const auto e = static_cast<long long>(k.early);
    const auto l = static_cast<long long>(k.late);
    return _mm512_set_epi64(l, e, l, e, l, e, l, e);
}

/** Each lane of @p acc moved forward by the distance of @p k, XOR @p next. */
ANIC_FOLD_TARGET inline __m512i
fold(__m512i acc, __m512i k, __m512i next)
{
    return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(acc, k, 0x00),
                                     _mm512_clmulepi64_epi128(acc, k, 0x11),
                                     next, 0x96); // three-way XOR
}

} // namespace

ANIC_FOLD_TARGET uint32_t
crc32cFoldUpdate(uint32_t crc, const uint8_t *p, size_t n)
{
    if (n < kFoldBlock)
        return crc32cUpdate(crc, p, n);

    // The raw state XORed into the first 4 bytes gives the same CRC
    // as starting from it, so the folds below start from zero.
    __m512i a0 = _mm512_xor_si512(
        _mm512_loadu_si512(p),
        _mm512_maskz_set1_epi32(1, static_cast<int>(crc)));
    __m512i a1 = _mm512_loadu_si512(p + 64);
    __m512i a2 = _mm512_loadu_si512(p + 128);
    __m512i a3 = _mm512_loadu_si512(p + 192);
    p += kFoldBlock;
    n -= kFoldBlock;

    const __m512i k256 = foldOperand(kFold256);
    while (n >= kFoldBlock) {
        a0 = fold(a0, k256, _mm512_loadu_si512(p));
        a1 = fold(a1, k256, _mm512_loadu_si512(p + 64));
        a2 = fold(a2, k256, _mm512_loadu_si512(p + 128));
        a3 = fold(a3, k256, _mm512_loadu_si512(p + 192));
        p += kFoldBlock;
        n -= kFoldBlock;
    }

    // Four accumulators into one, then its four lanes into one.
    const __m512i k64 = foldOperand(kFold64);
    __m512i acc = fold(fold(fold(a0, k64, a1), k64, a2), k64, a3);
    // Lanes 0-2 move 48/32/16 bytes forward onto lane 3, which stays.
    const __m512i kLanes = _mm512_set_epi64(
        0, 0, static_cast<long long>(kFold16.late),
        static_cast<long long>(kFold16.early),
        static_cast<long long>(kFold32.late),
        static_cast<long long>(kFold32.early),
        static_cast<long long>(kFold48.late),
        static_cast<long long>(kFold48.early));
    alignas(64) uint64_t q[8];
    _mm512_store_si512(q, fold(acc, kLanes, _mm512_maskz_mov_epi64(0xc0, acc)));

    // The XOR of the lanes is congruent to all bytes folded so far:
    // its CRC from a zero state is theirs.
    uint64_t c = _mm_crc32_u64(0, q[0] ^ q[2] ^ q[4] ^ q[6]);
    c = _mm_crc32_u64(c, q[1] ^ q[3] ^ q[5] ^ q[7]);
    return crc32cUpdate(static_cast<uint32_t>(c), p, n);
}

#undef ANIC_FOLD_TARGET

#endif // ANIC_HAVE_CRC_FOLD

} // namespace anic::crypto::detail::x86
