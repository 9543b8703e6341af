#include "util/bytes.hh"

#include <algorithm>
#include <bit>

#include "util/panic.hh"

// A second build of the word loops for CPUs with AVX-512DQ.
#if defined(__GNUC__) && defined(__x86_64__)
#define ANIC_PAYLOAD_AVX512 1
#else
#define ANIC_PAYLOAD_AVX512 0
#endif

namespace anic {

std::string
toHex(ByteView data)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(data.size() * 2);
    for (uint8_t b : data) {
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0xf]);
    }
    return out;
}

namespace {

int
hexNibble(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

// The word loops below are written once and compiled per kernel, so
// they and their helpers are always_inline: each kernel then gets its
// own copy built for its target ISA.

/**
 * Mixes a 64-bit value (splitmix64 finalizer); used to derive one
 * content word per 8-byte block of a deterministic object.
 */
[[gnu::always_inline]] inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Content of 8-byte block @p block: object byte 8 * block + k is
 *  byte k of this word, counted from the least significant. */
[[gnu::always_inline]] inline uint64_t
blockWord(uint64_t seed, uint64_t block)
{
    return mix64(seed ^ mix64(block));
}

/** @p w as a word whose memory bytes are w's bytes, least significant
 *  first. */
[[gnu::always_inline]] inline uint64_t
littleEndian(uint64_t w)
{
    if constexpr (std::endian::native == std::endian::big)
        return __builtin_bswap64(w);
    return w;
}

// The word loops have no per-word branch, so the vectorizer can take
// them whole.

[[gnu::always_inline]] inline void
fillWordsBody(uint8_t *out, size_t nWords, uint64_t seed, uint64_t block)
{
    for (size_t j = 0; j < nWords; j++) {
        uint64_t w = littleEndian(blockWord(seed, block + j));
        std::memcpy(out + 8 * j, &w, 8);
    }
}

[[gnu::always_inline]] inline uint64_t
diffWordsBody(const uint8_t *in, size_t nWords, uint64_t seed,
              uint64_t block)
{
    uint64_t acc = 0;
    for (size_t j = 0; j < nWords; j++) {
        uint64_t got;
        std::memcpy(&got, in + 8 * j, 8);
        acc |= got ^ littleEndian(blockWord(seed, block + j));
    }
    return acc;
}

void
fillWordsPortable(uint8_t *out, size_t nWords, uint64_t seed, uint64_t block)
{
    fillWordsBody(out, nWords, seed, block);
}

uint64_t
diffWordsPortable(const uint8_t *in, size_t nWords, uint64_t seed,
                  uint64_t block)
{
    return diffWordsBody(in, nWords, seed, block);
}

#if ANIC_PAYLOAD_AVX512
// Same bodies with AVX-512DQ enabled: vpmullq does the two 64-bit
// multiplies of mix64 for eight blocks at once.

__attribute__((target("avx512f,avx512dq"))) void
fillWordsAvx512(uint8_t *out, size_t nWords, uint64_t seed, uint64_t block)
{
    fillWordsBody(out, nWords, seed, block);
}

__attribute__((target("avx512f,avx512dq"))) uint64_t
diffWordsAvx512(const uint8_t *in, size_t nWords, uint64_t seed,
                uint64_t block)
{
    return diffWordsBody(in, nWords, seed, block);
}
#endif

} // namespace

Bytes
fromHex(const std::string &hex)
{
    ANIC_ASSERT(hex.size() % 2 == 0, "odd-length hex string");
    Bytes out(hex.size() / 2);
    for (size_t i = 0; i < out.size(); i++) {
        int hi = hexNibble(hex[2 * i]);
        int lo = hexNibble(hex[2 * i + 1]);
        ANIC_ASSERT(hi >= 0 && lo >= 0, "bad hex digit");
        out[i] = static_cast<uint8_t>((hi << 4) | lo);
    }
    return out;
}

namespace util {

std::span<const PayloadKernel>
payloadKernels()
{
    static const PayloadKernel all[] = {
        {"portable", fillWordsPortable, diffWordsPortable},
#if ANIC_PAYLOAD_AVX512
        {"avx512", fillWordsAvx512, diffWordsAvx512},
#endif
    };
    // CPUID is read once; the wide kernel is dropped if it cannot run.
    static const size_t usable = [] {
#if ANIC_PAYLOAD_AVX512
        __builtin_cpu_init();
        if (!__builtin_cpu_supports("avx512f") ||
            !__builtin_cpu_supports("avx512dq"))
            return size_t{1};
#endif
        return std::size(all);
    }();
    return {all, usable};
}

} // namespace util

// Byte (offset + i) of an object is byte (offset + i) % 8 of the word
// of block (offset + i) / 8. A span splits into a head up to the
// first block boundary, whole words, and a tail; the head and tail
// take their bytes from one block word each.

void
fillDeterministic(ByteSpan out, uint64_t seed, uint64_t offset)
{
    uint8_t *p = out.data();
    size_t n = out.size();
    size_t head = std::min<size_t>(n, (8 - (offset & 7)) & 7);
    if (head != 0) {
        uint64_t w = blockWord(seed, offset >> 3) >> (8 * (offset & 7));
        for (size_t k = 0; k < head; k++)
            p[k] = static_cast<uint8_t>(w >> (8 * k));
    }
    uint64_t block = (offset + head) >> 3;
    size_t nWords = (n - head) / 8;
    util::payloadKernels().back().fillWords(p + head, nWords, seed, block);
    size_t done = head + 8 * nWords;
    if (done < n) {
        uint64_t w = blockWord(seed, block + nWords);
        for (size_t k = 0; done + k < n; k++)
            p[done + k] = static_cast<uint8_t>(w >> (8 * k));
    }
}

bool
checkDeterministic(ByteView data, uint64_t seed, uint64_t offset)
{
    const uint8_t *p = data.data();
    size_t n = data.size();
    size_t head = std::min<size_t>(n, (8 - (offset & 7)) & 7);
    uint64_t diff = 0;
    if (head != 0) {
        uint64_t w = blockWord(seed, offset >> 3) >> (8 * (offset & 7));
        for (size_t k = 0; k < head; k++)
            diff |= p[k] ^ static_cast<uint8_t>(w >> (8 * k));
    }
    uint64_t block = (offset + head) >> 3;
    size_t nWords = (n - head) / 8;
    diff |= util::payloadKernels().back().diffWords(p + head, nWords, seed, block);
    size_t done = head + 8 * nWords;
    if (done < n) {
        uint64_t w = blockWord(seed, block + nWords);
        for (size_t k = 0; done + k < n; k++)
            diff |= p[done + k] ^ static_cast<uint8_t>(w >> (8 * k));
    }
    return diff == 0;
}

} // namespace anic
