/**
 * @file
 * Hardware AES-128-GCM kernels: AES-NI key schedule, 8-block
 * interleaved CTR keystream generation, and carry-less-multiply GHASH
 * with aggregated (4/8-block) reduction, following the method of the
 * Intel GCM white paper (Gueron & Kounavis). Compiled with
 * -maes -mpclmul -msse4.2 for this file only; everything here is
 * reached exclusively through the dispatch table in cpu.cc, so the
 * rest of the build stays portable.
 *
 * A second bulk kernel, for CPUs with AVX-512 VAES and VPCLMULQDQ,
 * runs 16 blocks per step: four 512-bit counter vectors go through
 * the AES rounds with one VAESENC per round each, and the 16
 * ciphertext blocks are multiplied lane by lane against H^16..H^1 and
 * reduced once (after Drucker, Gueron & Krasnov, "Making AES great
 * again", IACR ePrint 2018/392). It is built with a target attribute
 * and hands runs under 4 blocks to the AES-NI kernel.
 *
 * Representation notes: GHASH blocks are byte-reversed on load so a
 * block becomes a 128-bit integer whose bit i holds the coefficient of
 * x^(127-i). Products of such bit-reflected values come out shifted
 * right by one, which the reduction step compensates by shifting the
 * 256-bit product left by one before folding mod the GCM polynomial.
 */

#include <immintrin.h>

#include "crypto/kernels.hh"

namespace anic::crypto::detail::x86 {

namespace {

inline __m128i
bswap128(__m128i x)
{
    const __m128i mask = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                      12, 13, 14, 15);
    return _mm_shuffle_epi8(x, mask);
}

// ------------------------------------------------------------- AES

inline __m128i
expandStep(__m128i key, __m128i keygened)
{
    keygened = _mm_shuffle_epi32(keygened, _MM_SHUFFLE(3, 3, 3, 3));
    key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
    key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
    key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
    return _mm_xor_si128(key, keygened);
}

struct RoundKeys
{
    __m128i k[11];

    explicit RoundKeys(const uint8_t rk[11][16])
    {
        for (int i = 0; i < 11; i++)
            k[i] = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(rk[i]));
    }
};

inline __m128i
encryptOne(const RoundKeys &rk, __m128i b)
{
    b = _mm_xor_si128(b, rk.k[0]);
    for (int r = 1; r < 10; r++)
        b = _mm_aesenc_si128(b, rk.k[r]);
    return _mm_aesenclast_si128(b, rk.k[10]);
}

/** Encrypts @p w state blocks in flight to hide AESENC latency. */
template <int W>
inline void
encryptWide(const RoundKeys &rk, __m128i b[W])
{
    for (int j = 0; j < W; j++)
        b[j] = _mm_xor_si128(b[j], rk.k[0]);
    for (int r = 1; r < 10; r++)
        for (int j = 0; j < W; j++)
            b[j] = _mm_aesenc_si128(b[j], rk.k[r]);
    for (int j = 0; j < W; j++)
        b[j] = _mm_aesenclast_si128(b[j], rk.k[10]);
}

/** Counter block: @p base with the (big-endian) value @p v in lane 3. */
inline __m128i
counterBlock(__m128i base, uint32_t v)
{
    return _mm_insert_epi32(base, static_cast<int>(__builtin_bswap32(v)), 3);
}

// ----------------------------------------------------------- GHASH

/**
 * Accumulates the unreduced 256-bit carry-less product a*b into
 * (lo, hi). Summing several products before one reduction is the
 * aggregated-reduction trick: reduction is linear over XOR.
 */
inline void
clmulAcc(__m128i a, __m128i b, __m128i &lo, __m128i &hi)
{
    __m128i t0 = _mm_clmulepi64_si128(a, b, 0x00);
    __m128i t1 = _mm_clmulepi64_si128(a, b, 0x10);
    __m128i t2 = _mm_clmulepi64_si128(a, b, 0x01);
    __m128i t3 = _mm_clmulepi64_si128(a, b, 0x11);
    t1 = _mm_xor_si128(t1, t2);
    lo = _mm_xor_si128(lo, t0);
    lo = _mm_xor_si128(lo, _mm_slli_si128(t1, 8));
    hi = _mm_xor_si128(hi, t3);
    hi = _mm_xor_si128(hi, _mm_srli_si128(t1, 8));
}

/**
 * Shifts the 256-bit value (hi:lo) left by one (the bit-reflection
 * fixup) and reduces it mod x^128 + x^7 + x^2 + x + 1.
 */
inline __m128i
reduceShifted(__m128i lo, __m128i hi)
{
    __m128i tmp7 = _mm_srli_epi32(lo, 31);
    __m128i tmp8 = _mm_srli_epi32(hi, 31);
    lo = _mm_slli_epi32(lo, 1);
    hi = _mm_slli_epi32(hi, 1);

    __m128i tmp9 = _mm_srli_si128(tmp7, 12);
    tmp8 = _mm_slli_si128(tmp8, 4);
    tmp7 = _mm_slli_si128(tmp7, 4);
    lo = _mm_or_si128(lo, tmp7);
    hi = _mm_or_si128(hi, tmp8);
    hi = _mm_or_si128(hi, tmp9);

    tmp7 = _mm_slli_epi32(lo, 31);
    tmp8 = _mm_slli_epi32(lo, 30);
    tmp9 = _mm_slli_epi32(lo, 25);
    tmp7 = _mm_xor_si128(tmp7, tmp8);
    tmp7 = _mm_xor_si128(tmp7, tmp9);
    tmp8 = _mm_srli_si128(tmp7, 4);
    tmp7 = _mm_slli_si128(tmp7, 12);
    lo = _mm_xor_si128(lo, tmp7);

    __m128i r = _mm_srli_epi32(lo, 1);
    r = _mm_xor_si128(r, _mm_srli_epi32(lo, 2));
    r = _mm_xor_si128(r, _mm_srli_epi32(lo, 7));
    r = _mm_xor_si128(r, tmp8);
    lo = _mm_xor_si128(lo, r);
    return _mm_xor_si128(hi, lo);
}

/** Full GF(2^128) multiply of byte-reversed operands. */
inline __m128i
gfmul(__m128i a, __m128i b)
{
    __m128i lo = _mm_setzero_si128();
    __m128i hi = _mm_setzero_si128();
    clmulAcc(a, b, lo, hi);
    return reduceShifted(lo, hi);
}

/** The powers the 4/8-block steps use: H^1..H^8. */
struct GhashKey
{
    static constexpr size_t kPowers = 8;
    __m128i h[kPowers]; // h[i] = byte-reversed H^(i+1)

    explicit GhashKey(const uint8_t hpow[kGhashPowers][16])
    {
        for (size_t i = 0; i < kPowers; i++)
            h[i] = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(hpow[i]));
    }
};

inline __m128i
loadBlockSwapped(const uint8_t *p)
{
    return bswap128(_mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
}

/**
 * Absorbs 4 blocks with a single reduction:
 *   Y' = (Y ^ c0)*H^4 ^ c1*H^3 ^ c2*H^2 ^ c3*H
 */
inline __m128i
ghash4(const GhashKey &hk, __m128i y, __m128i c0, __m128i c1, __m128i c2,
       __m128i c3)
{
    __m128i lo = _mm_setzero_si128();
    __m128i hi = _mm_setzero_si128();
    clmulAcc(_mm_xor_si128(y, c0), hk.h[3], lo, hi);
    clmulAcc(c1, hk.h[2], lo, hi);
    clmulAcc(c2, hk.h[1], lo, hi);
    clmulAcc(c3, hk.h[0], lo, hi);
    return reduceShifted(lo, hi);
}

/** Absorbs 8 blocks with a single reduction (powers H^8..H^1). */
inline __m128i
ghash8(const GhashKey &hk, __m128i y, const __m128i c[8])
{
    __m128i lo = _mm_setzero_si128();
    __m128i hi = _mm_setzero_si128();
    clmulAcc(_mm_xor_si128(y, c[0]), hk.h[7], lo, hi);
    for (int j = 1; j < 8; j++)
        clmulAcc(c[j], hk.h[7 - j], lo, hi);
    return reduceShifted(lo, hi);
}

} // namespace

// --------------------------------------------------- dispatch entry

void
aesKeyExpand(const uint8_t key[16], uint8_t rk[11][16])
{
    __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i *>(key));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(rk[0]), k);
    // AESKEYGENASSIST needs an immediate round constant; unroll.
#define ANIC_EXPAND(i, rcon)                                                  \
    k = expandStep(k, _mm_aeskeygenassist_si128(k, rcon));                    \
    _mm_storeu_si128(reinterpret_cast<__m128i *>(rk[i]), k)
    ANIC_EXPAND(1, 0x01);
    ANIC_EXPAND(2, 0x02);
    ANIC_EXPAND(3, 0x04);
    ANIC_EXPAND(4, 0x08);
    ANIC_EXPAND(5, 0x10);
    ANIC_EXPAND(6, 0x20);
    ANIC_EXPAND(7, 0x40);
    ANIC_EXPAND(8, 0x80);
    ANIC_EXPAND(9, 0x1b);
    ANIC_EXPAND(10, 0x36);
#undef ANIC_EXPAND
}

void
aesEncryptBlock(const uint8_t rk[11][16], const uint8_t in[16],
                uint8_t out[16])
{
    RoundKeys keys(rk);
    __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i *>(in));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(out), encryptOne(keys, b));
}

void
ghashInit(const uint8_t h[16], uint8_t hpow[kGhashPowers][16])
{
    __m128i hs = loadBlockSwapped(h);
    __m128i p = hs;
    _mm_storeu_si128(reinterpret_cast<__m128i *>(hpow[0]), p);
    for (size_t i = 1; i < kGhashPowers; i++) {
        p = gfmul(p, hs);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(hpow[i]), p);
    }
}

void
ghashBlocks(const uint8_t hpow[kGhashPowers][16], uint8_t y[16],
            const uint8_t *data, size_t nblk)
{
    GhashKey hk(hpow);
    __m128i acc = loadBlockSwapped(y);
    while (nblk >= 4) {
        acc = ghash4(hk, acc, loadBlockSwapped(data),
                     loadBlockSwapped(data + 16), loadBlockSwapped(data + 32),
                     loadBlockSwapped(data + 48));
        data += 64;
        nblk -= 4;
    }
    while (nblk > 0) {
        acc = gfmul(_mm_xor_si128(acc, loadBlockSwapped(data)), hk.h[0]);
        data += 16;
        nblk--;
    }
    _mm_storeu_si128(reinterpret_cast<__m128i *>(y), bswap128(acc));
}

void
gcmCryptBlocks(const uint8_t rk[11][16], const uint8_t hpow[kGhashPowers][16],
               uint8_t ctr[16], uint8_t y[16], const uint8_t *in,
               uint8_t *out, size_t nblk, bool encrypt)
{
    RoundKeys keys(rk);
    GhashKey hk(hpow);
    __m128i base = _mm_loadu_si128(reinterpret_cast<const __m128i *>(ctr));
    uint32_t c = __builtin_bswap32(
        static_cast<uint32_t>(_mm_extract_epi32(base, 3)));
    __m128i acc = loadBlockSwapped(y);

    while (nblk >= 8) {
        __m128i b[8];
        for (int j = 0; j < 8; j++)
            b[j] = counterBlock(base, c + 1 + static_cast<uint32_t>(j));
        c += 8;
        encryptWide<8>(keys, b);
        __m128i ct[8];
        for (int j = 0; j < 8; j++) {
            __m128i pin = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(in + 16 * j));
            __m128i o = _mm_xor_si128(pin, b[j]);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(out + 16 * j), o);
            ct[j] = bswap128(encrypt ? o : pin);
        }
        acc = ghash8(hk, acc, ct);
        in += 128;
        out += 128;
        nblk -= 8;
    }
    while (nblk >= 4) {
        __m128i b[4];
        for (int j = 0; j < 4; j++)
            b[j] = counterBlock(base, c + 1 + static_cast<uint32_t>(j));
        c += 4;
        encryptWide<4>(keys, b);
        __m128i ct[4];
        for (int j = 0; j < 4; j++) {
            __m128i pin = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(in + 16 * j));
            __m128i o = _mm_xor_si128(pin, b[j]);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(out + 16 * j), o);
            ct[j] = bswap128(encrypt ? o : pin);
        }
        acc = ghash4(hk, acc, ct[0], ct[1], ct[2], ct[3]);
        in += 64;
        out += 64;
        nblk -= 4;
    }
    while (nblk > 0) {
        __m128i ks = encryptOne(keys, counterBlock(base, ++c));
        __m128i pin = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(in));
        __m128i o = _mm_xor_si128(pin, ks);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out), o);
        acc = gfmul(_mm_xor_si128(acc, bswap128(encrypt ? o : pin)),
                    hk.h[0]);
        in += 16;
        out += 16;
        nblk--;
    }

    _mm_storeu_si128(reinterpret_cast<__m128i *>(y), bswap128(acc));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(ctr),
                     counterBlock(base, c));
}

void
ctrBlocks(const uint8_t rk[11][16], const uint8_t iv[12], uint64_t counter,
          const uint8_t *in, uint8_t *out, size_t nblk)
{
    RoundKeys keys(rk);
    alignas(16) uint8_t basebuf[16] = {0};
    __builtin_memcpy(basebuf, iv, 12);
    __m128i base = _mm_load_si128(reinterpret_cast<const __m128i *>(basebuf));

    while (nblk >= 8) {
        __m128i b[8];
        for (int j = 0; j < 8; j++)
            b[j] = counterBlock(
                base, static_cast<uint32_t>(counter + static_cast<uint64_t>(j)));
        counter += 8;
        encryptWide<8>(keys, b);
        for (int j = 0; j < 8; j++) {
            __m128i pin = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(in + 16 * j));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(out + 16 * j),
                             _mm_xor_si128(pin, b[j]));
        }
        in += 128;
        out += 128;
        nblk -= 8;
    }
    while (nblk > 0) {
        __m128i ks = encryptOne(keys,
                                counterBlock(base,
                                             static_cast<uint32_t>(counter)));
        counter++;
        __m128i pin = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(in));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out),
                         _mm_xor_si128(pin, ks));
        in += 16;
        out += 16;
        nblk--;
    }
}

#ifdef ANIC_HAVE_VAES_GCM

namespace {

// On top of this file's -maes -mpclmul -msse4.2.
#define ANIC_VAES_TARGET                                                       \
    __attribute__((target("avx512f,avx512bw,avx512vl,vaes,vpclmulqdq")))

// Lane moves use the zero-masked intrinsics with a full mask: GCC 12's
// unmasked ones pass an _mm512_undefined_* that -Wmaybe-uninitialized
// flags. A full mask compiles to the unmasked instruction.
constexpr __mmask8 kAll8 = 0xff;
constexpr __mmask16 kAll16 = 0xffff;

/** @p x in each of the four 128-bit lanes. */
ANIC_VAES_TARGET inline __m512i
lanes4(__m128i x)
{
    return _mm512_maskz_broadcast_i32x4(kAll16, x);
}

/** bswap128 on each lane. */
ANIC_VAES_TARGET inline __m512i
bswapLanes(__m512i x)
{
    return _mm512_shuffle_epi8(
        x, lanes4(_mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                               14, 15)));
}

/**
 * Swaps bytes 12..15 of each lane. Counter vectors keep the counter
 * little-endian in dword 3, so a dword add wraps it mod 2^32 exactly
 * as counterBlock's uint32 arithmetic does; this turns them into wire
 * (big-endian) counter blocks, and a wire block into that form.
 */
ANIC_VAES_TARGET inline __m512i
swapCounter(__m512i x)
{
    return _mm512_shuffle_epi8(
        x, lanes4(_mm_set_epi8(12, 13, 14, 15, 11, 10, 9, 8, 7, 6, 5, 4, 3,
                               2, 1, 0)));
}

/** Dword 3 of lane j holds j + @p first; every other dword 0. */
ANIC_VAES_TARGET inline __m512i
laneCounts(int first)
{
    return _mm512_set_epi32(first + 3, 0, 0, 0, first + 2, 0, 0, 0,
                            first + 1, 0, 0, 0, first, 0, 0, 0);
}

struct WideRoundKeys
{
    __m512i k[11];

    ANIC_VAES_TARGET explicit WideRoundKeys(const uint8_t rk[11][16])
    {
        for (int i = 0; i < 11; i++)
            k[i] = lanes4(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(rk[i])));
    }
};

/** Byte-reversed H^16..H^1, four per vector, highest power first. */
struct WideGhashKey
{
    __m512i h[4];

    ANIC_VAES_TARGET explicit WideGhashKey(
        const uint8_t hpow[kGhashPowers][16])
    {
        // h[k] holds H^(16-4k)..H^(13-4k): hpow[12-4k..15-4k] with
        // its lanes reversed.
        for (int k = 0; k < 4; k++) {
            __m512i v = _mm512_loadu_si512(hpow[12 - 4 * k]);
            h[k] = _mm512_maskz_shuffle_i64x2(kAll8, v, v,
                                              _MM_SHUFFLE(0, 1, 2, 3));
        }
    }
};

/**
 * Keystream for the next 4M blocks: M counter vectors from @p ctr
 * (little-endian form, see swapCounter), which advances by 4M.
 */
template <int M>
ANIC_VAES_TARGET inline void
keystream(const WideRoundKeys &rk, __m512i &ctr, __m512i b[M])
{
    const __m512i four =
        _mm512_set_epi32(4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0);
    for (int j = 0; j < M; j++) {
        b[j] = _mm512_xor_si512(swapCounter(ctr), rk.k[0]);
        ctr = _mm512_add_epi32(ctr, four);
    }
    for (int r = 1; r < 10; r++)
        for (int j = 0; j < M; j++)
            b[j] = _mm512_aesenc_epi128(b[j], rk.k[r]);
    for (int j = 0; j < M; j++)
        b[j] = _mm512_aesenclast_epi128(b[j], rk.k[10]);
}

/** XOR of the four lanes of @p x. */
ANIC_VAES_TARGET inline __m128i
xorLanes(__m512i x)
{
    __m256i t = _mm256_xor_si256(_mm512_maskz_extracti64x4_epi64(kAll8, x, 0),
                                 _mm512_maskz_extracti64x4_epi64(kAll8, x, 1));
    return _mm_xor_si128(_mm256_castsi256_si128(t),
                         _mm256_extracti128_si256(t, 1));
}

/**
 * Absorbs the 4M byte-reversed blocks @p c with one reduction: block
 * i is multiplied by H^(4M-i), the accumulator rides in with block 0,
 * and the lane products are summed before reducing.
 */
template <int M>
ANIC_VAES_TARGET inline __m128i
ghashLanes(const WideGhashKey &hk, __m128i y, const __m512i c[M])
{
    __m512i lo = _mm512_setzero_si512();
    __m512i hi = _mm512_setzero_si512();
    __m512i mid = _mm512_setzero_si512();
    for (int j = 0; j < M; j++) {
        __m512i x =
            j == 0 ? _mm512_xor_si512(c[0], _mm512_zextsi128_si512(y)) : c[j];
        const __m512i &h = hk.h[4 - M + j];
        lo = _mm512_xor_si512(lo, _mm512_clmulepi64_epi128(x, h, 0x00));
        hi = _mm512_xor_si512(hi, _mm512_clmulepi64_epi128(x, h, 0x11));
        mid = _mm512_ternarylogic_epi64(
            mid, _mm512_clmulepi64_epi128(x, h, 0x01),
            _mm512_clmulepi64_epi128(x, h, 0x10), 0x96); // three-way XOR
    }
    lo = _mm512_xor_si512(lo, _mm512_bslli_epi128(mid, 8));
    hi = _mm512_xor_si512(hi, _mm512_bsrli_epi128(mid, 8));
    return reduceShifted(xorLanes(lo), xorLanes(hi));
}

/** One fused step over 4M blocks; returns the new accumulator. */
template <int M>
ANIC_VAES_TARGET inline __m128i
gcmStep(const WideRoundKeys &rk, const WideGhashKey &hk, __m512i &ctr,
        __m128i y, const uint8_t *in, uint8_t *out, bool encrypt)
{
    __m512i b[M];
    keystream<M>(rk, ctr, b);
    __m512i ct[M];
    for (int j = 0; j < M; j++) {
        __m512i pin = _mm512_loadu_si512(in + 64 * j);
        __m512i o = _mm512_xor_si512(pin, b[j]);
        _mm512_storeu_si512(out + 64 * j, o);
        ct[j] = bswapLanes(encrypt ? o : pin);
    }
    return ghashLanes<M>(hk, y, ct);
}

template <int M>
ANIC_VAES_TARGET inline void
ctrStep(const WideRoundKeys &rk, __m512i &ctr, const uint8_t *in,
        uint8_t *out)
{
    __m512i b[M];
    keystream<M>(rk, ctr, b);
    for (int j = 0; j < M; j++)
        _mm512_storeu_si512(
            out + 64 * j,
            _mm512_xor_si512(_mm512_loadu_si512(in + 64 * j), b[j]));
}

} // namespace

ANIC_VAES_TARGET void
vaesGcmCryptBlocks(const uint8_t rk[11][16],
                   const uint8_t hpow[kGhashPowers][16], uint8_t ctr[16],
                   uint8_t y[16], const uint8_t *in, uint8_t *out,
                   size_t nblk, bool encrypt)
{
    if (nblk < 4) {
        gcmCryptBlocks(rk, hpow, ctr, y, in, out, nblk, encrypt);
        return;
    }
    WideRoundKeys keys(rk);
    WideGhashKey hk(hpow);
    // Pre-increments like AesGcm::ctrBlock: lane j starts at ctr+1+j.
    __m512i c = _mm512_add_epi32(
        swapCounter(lanes4(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(ctr)))),
        laneCounts(1));
    __m128i acc = loadBlockSwapped(y);
    const size_t wide = nblk & ~size_t{3};

    for (; nblk >= 16; nblk -= 16, in += 256, out += 256)
        acc = gcmStep<4>(keys, hk, c, acc, in, out, encrypt);
    switch (nblk / 4) {
    case 3:
        acc = gcmStep<3>(keys, hk, c, acc, in, out, encrypt);
        break;
    case 2:
        acc = gcmStep<2>(keys, hk, c, acc, in, out, encrypt);
        break;
    case 1:
        acc = gcmStep<1>(keys, hk, c, acc, in, out, encrypt);
        break;
    }
    in += 16 * (nblk & ~size_t{3});
    out += 16 * (nblk & ~size_t{3});
    nblk &= 3;

    _mm_storeu_si128(reinterpret_cast<__m128i *>(y), bswap128(acc));
    uint32_t be;
    __builtin_memcpy(&be, ctr + 12, 4);
    be = __builtin_bswap32(__builtin_bswap32(be) +
                           static_cast<uint32_t>(wide));
    __builtin_memcpy(ctr + 12, &be, 4);
    if (nblk > 0)
        gcmCryptBlocks(rk, hpow, ctr, y, in, out, nblk, encrypt);
}

ANIC_VAES_TARGET void
vaesCtrBlocks(const uint8_t rk[11][16], const uint8_t iv[12],
              uint64_t counter, const uint8_t *in, uint8_t *out, size_t nblk)
{
    if (nblk < 4) {
        ctrBlocks(rk, iv, counter, in, out, nblk);
        return;
    }
    WideRoundKeys keys(rk);
    alignas(16) uint8_t basebuf[16] = {0};
    __builtin_memcpy(basebuf, iv, 12);
    __m128i base = _mm_insert_epi32(
        _mm_load_si128(reinterpret_cast<const __m128i *>(basebuf)),
        static_cast<int>(static_cast<uint32_t>(counter)), 3);
    __m512i c = _mm512_add_epi32(lanes4(base), laneCounts(0));
    const size_t wide = nblk & ~size_t{3};

    for (; nblk >= 16; nblk -= 16, in += 256, out += 256)
        ctrStep<4>(keys, c, in, out);
    switch (nblk / 4) {
    case 3:
        ctrStep<3>(keys, c, in, out);
        break;
    case 2:
        ctrStep<2>(keys, c, in, out);
        break;
    case 1:
        ctrStep<1>(keys, c, in, out);
        break;
    }
    in += 16 * (nblk & ~size_t{3});
    out += 16 * (nblk & ~size_t{3});
    nblk &= 3;

    if (nblk > 0)
        ctrBlocks(rk, iv, counter + wide, in, out, nblk);
}

#undef ANIC_VAES_TARGET

#endif // ANIC_HAVE_VAES_GCM

} // namespace anic::crypto::detail::x86
