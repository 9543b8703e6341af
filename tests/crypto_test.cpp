/**
 * @file
 * Known-answer and property tests for the crypto library: CRC32C,
 * SHA-1, HMAC-SHA1, AES-128 (ECB/CBC), AES-128-GCM, GHASH.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "crypto/aes.hh"
#include "crypto/cpu.hh"
#include "crypto/crc32c.hh"
#include "crypto/gcm.hh"
#include "crypto/kernels.hh"
#include "crypto/sha1.hh"
#include "util/bytes.hh"
#include "util/env.hh"
#include "util/rand.hh"

namespace anic::crypto {
namespace {

Bytes
ascii(const std::string &s)
{
    return Bytes(s.begin(), s.end());
}

// ---------------------------------------------------------------- CRC32C

TEST(Crc32c, CheckString)
{
    // Canonical CRC-32C check value for "123456789".
    EXPECT_EQ(Crc32c::compute(ascii("123456789")), 0xe3069283u);
}

TEST(Crc32c, Rfc3720Vectors)
{
    // iSCSI CRC test patterns from RFC 3720 appendix B.4.
    Bytes zeros(32, 0x00);
    EXPECT_EQ(Crc32c::compute(zeros), 0x8a9136aau);

    Bytes ones(32, 0xff);
    EXPECT_EQ(Crc32c::compute(ones), 0x62a8ab43u);

    Bytes incr(32);
    for (int i = 0; i < 32; i++)
        incr[i] = static_cast<uint8_t>(i);
    EXPECT_EQ(Crc32c::compute(incr), 0x46dd794eu);
}

TEST(Crc32c, IncrementalEqualsOneShot)
{
    // The NIC computes the digest across arbitrary packet boundaries;
    // any split must give the same CRC.
    Bytes data(10000);
    fillDeterministic(data, 99, 0);
    uint32_t whole = Crc32c::compute(data);

    Rng rng(7);
    for (int trial = 0; trial < 20; trial++) {
        Crc32c c;
        size_t off = 0;
        while (off < data.size()) {
            size_t n = std::min<size_t>(rng.range(1, 1500),
                                        data.size() - off);
            c.update(ByteView(data).subspan(off, n));
            off += n;
        }
        EXPECT_EQ(c.value(), whole);
    }
}

TEST(Crc32c, ResetRestoresInitialState)
{
    Crc32c c;
    c.update(ascii("garbage"));
    c.reset();
    c.update(ascii("123456789"));
    EXPECT_EQ(c.value(), 0xe3069283u);
}

// ---------------------------------------------------------------- SHA-1

TEST(Sha1, KnownAnswers)
{
    EXPECT_EQ(toHex(Sha1::compute(ascii("abc"))),
              "a9993e364706816aba3e25717850c26c9cd0d89d");
    EXPECT_EQ(toHex(Sha1::compute(ascii(""))),
              "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    EXPECT_EQ(toHex(Sha1::compute(ascii(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
              "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, IncrementalEqualsOneShot)
{
    Bytes data(100000);
    fillDeterministic(data, 3, 0);
    auto whole = Sha1::compute(data);

    Sha1 s;
    size_t off = 0;
    size_t step = 1;
    while (off < data.size()) {
        size_t n = std::min(step, data.size() - off);
        s.update(ByteView(data).subspan(off, n));
        off += n;
        step = step * 3 + 1;
    }
    std::array<uint8_t, Sha1::kDigestSize> out;
    s.final(out);
    EXPECT_EQ(out, whole);
}

TEST(HmacSha1, Rfc2202Vectors)
{
    Bytes key1(20, 0x0b);
    EXPECT_EQ(toHex(hmacSha1(key1, ascii("Hi There"))),
              "b617318655057264e28bc0b6fb378c8ef146be00");

    EXPECT_EQ(toHex(hmacSha1(ascii("Jefe"),
                             ascii("what do ya want for nothing?"))),
              "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");

    Bytes key3(20, 0xaa);
    Bytes data3(50, 0xdd);
    EXPECT_EQ(toHex(hmacSha1(key3, data3)),
              "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
}

// ---------------------------------------------------------------- AES

TEST(Aes128, Fips197Vector)
{
    Aes128 aes(fromHex("000102030405060708090a0b0c0d0e0f"));
    Bytes pt = fromHex("00112233445566778899aabbccddeeff");
    uint8_t ct[16];
    aes.encryptBlock(pt.data(), ct);
    EXPECT_EQ(toHex(ByteView(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");

    uint8_t back[16];
    aes.decryptBlock(ct, back);
    EXPECT_EQ(toHex(ByteView(back, 16)), toHex(pt));
}

TEST(Aes128, ZeroKeyZeroBlock)
{
    Aes128 aes(Bytes(16, 0));
    uint8_t ct[16];
    uint8_t zero[16] = {0};
    aes.encryptBlock(zero, ct);
    EXPECT_EQ(toHex(ByteView(ct, 16)), "66e94bd4ef8a2c3b884cfa59ca342b2e");
}

TEST(Aes128, EncryptDecryptRoundTripRandom)
{
    Rng rng(1234);
    for (int trial = 0; trial < 50; trial++) {
        Bytes key(16);
        Bytes pt(16);
        fillDeterministic(key, trial, 0);
        fillDeterministic(pt, trial, 100);
        Aes128 aes(key);
        uint8_t ct[16];
        uint8_t back[16];
        aes.encryptBlock(pt.data(), ct);
        aes.decryptBlock(ct, back);
        EXPECT_EQ(0, std::memcmp(back, pt.data(), 16));
    }
}

TEST(AesCbc, Sp800_38aVectors)
{
    Bytes key = fromHex("2b7e151628aed2a6abf7158809cf4f3c");
    Bytes iv = fromHex("000102030405060708090a0b0c0d0e0f");
    Bytes pt = fromHex(
        "6bc1bee22e409f96e93d7e117393172a"
        "ae2d8a571e03ac9c9eb76fac45af8e51");
    AesCbc cbc(key, iv);
    Bytes ct(pt.size());
    cbc.encrypt(pt, ct);
    EXPECT_EQ(toHex(ct),
              "7649abac8119b246cee98e9b12e9197d"
              "5086cb9b507219ee95db113a917678b2");

    AesCbc cbc2(key, iv);
    Bytes back(ct.size());
    cbc2.decrypt(ct, back);
    EXPECT_EQ(back, pt);
}

// ---------------------------------------------------------------- GHASH

TEST(Ghash, TableMatchesBitwiseReference)
{
    Rng rng(42);
    for (int trial = 0; trial < 100; trial++) {
        uint8_t h[16];
        uint8_t x[16];
        for (auto &b : h)
            b = static_cast<uint8_t>(rng.next());
        for (auto &b : x)
            b = static_cast<uint8_t>(rng.next());

        Ghash g;
        g.setH(h);
        g.absorbBlock(x);
        uint8_t table_out[16];
        g.digest(table_out);

        // One absorbed block starting from Y=0 is exactly (x * H).
        uint8_t ref_out[16];
        Ghash::gf128MulBitwise(x, h, ref_out);
        EXPECT_EQ(0, std::memcmp(table_out, ref_out, 16))
            << "trial " << trial;
    }
}

// ---------------------------------------------------------------- GCM

struct GcmVector
{
    const char *key;
    const char *iv;
    const char *aad;
    const char *pt;
    const char *ct;
    const char *tag;
};

// McGrew & Viega AES-128-GCM test cases 1-4.
const GcmVector kGcmVectors[] = {
    {"00000000000000000000000000000000", "000000000000000000000000", "", "",
     "", "58e2fccefa7e3061367f1d57a4e7455a"},
    {"00000000000000000000000000000000", "000000000000000000000000", "",
     "00000000000000000000000000000000", "0388dace60b6a392f328c2b971b2fe78",
     "ab6e47d42cec13bdf53a67b21257bddf"},
    {"feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888", "",
     "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
     "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
     "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
     "4d5c2af327cd64a62cf35abd2ba6fab4"},
    {"feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
     "feedfacedeadbeeffeedfacedeadbeefabaddad2",
     "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
     "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
     "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
     "5bc94fbc3221a5db94fae95ae7121a47"},
};

class GcmKat : public ::testing::TestWithParam<size_t>
{
};

TEST_P(GcmKat, EncryptMatchesVector)
{
    const GcmVector &v = kGcmVectors[GetParam()];
    AesGcm gcm(fromHex(v.key));
    Bytes pt = fromHex(v.pt);
    Bytes sealed = gcm.seal(fromHex(v.iv), fromHex(v.aad), pt);
    ASSERT_EQ(sealed.size(), pt.size() + AesGcm::kTagSize);
    EXPECT_EQ(toHex(ByteView(sealed.data(), pt.size())), v.ct);
    EXPECT_EQ(toHex(ByteView(sealed.data() + pt.size(), 16)), v.tag);
}

TEST_P(GcmKat, DecryptMatchesVector)
{
    const GcmVector &v = kGcmVectors[GetParam()];
    AesGcm gcm(fromHex(v.key));
    Bytes sealed = fromHex(v.ct);
    Bytes tag = fromHex(v.tag);
    sealed.insert(sealed.end(), tag.begin(), tag.end());
    Bytes pt;
    EXPECT_TRUE(gcm.open(fromHex(v.iv), fromHex(v.aad), sealed, pt));
    EXPECT_EQ(toHex(pt), v.pt);
}

TEST_P(GcmKat, TamperedTagFails)
{
    const GcmVector &v = kGcmVectors[GetParam()];
    AesGcm gcm(fromHex(v.key));
    Bytes sealed = fromHex(v.ct);
    Bytes tag = fromHex(v.tag);
    tag[0] ^= 1;
    sealed.insert(sealed.end(), tag.begin(), tag.end());
    Bytes pt;
    EXPECT_FALSE(gcm.open(fromHex(v.iv), fromHex(v.aad), sealed, pt));
}

INSTANTIATE_TEST_SUITE_P(Vectors, GcmKat,
                         ::testing::Range<size_t>(0, std::size(kGcmVectors)));

TEST(AesGcm, StreamingMatchesOneShot)
{
    // The NIC processes a record across many packet-sized chunks; any
    // chunking must yield identical ciphertext and tag.
    Bytes key(16);
    fillDeterministic(key, 1, 0);
    Bytes iv(12);
    fillDeterministic(iv, 2, 0);
    Bytes aad = ascii("header");
    Bytes pt(16384 + 7);
    fillDeterministic(pt, 3, 0);

    AesGcm one(key);
    Bytes sealed = one.seal(iv, aad, pt);

    Rng rng(5);
    for (int trial = 0; trial < 10; trial++) {
        AesGcm gcm(key);
        gcm.start(iv, aad);
        Bytes ct(pt.size());
        size_t off = 0;
        while (off < pt.size()) {
            size_t n = std::min<size_t>(rng.range(1, 1460), pt.size() - off);
            gcm.encryptUpdate(ByteView(pt).subspan(off, n),
                              ByteSpan(ct).subspan(off, n));
            off += n;
        }
        uint8_t tag[16];
        gcm.finishTag(tag);
        EXPECT_EQ(0, std::memcmp(ct.data(), sealed.data(), pt.size()));
        EXPECT_EQ(0, std::memcmp(tag, sealed.data() + pt.size(), 16));
    }
}

TEST(AesGcm, StreamingDecryptAnyChunking)
{
    Bytes key(16);
    fillDeterministic(key, 10, 0);
    Bytes iv(12);
    fillDeterministic(iv, 11, 0);
    Bytes pt(5000);
    fillDeterministic(pt, 12, 0);

    AesGcm enc(key);
    Bytes sealed = enc.seal(iv, {}, pt);

    AesGcm dec(key);
    dec.start(iv, {});
    Bytes out(pt.size());
    size_t chunks[] = {1, 13, 100, 1460, 3000, 426};
    size_t off = 0;
    size_t i = 0;
    while (off < pt.size()) {
        size_t n = std::min(chunks[i % std::size(chunks)], pt.size() - off);
        dec.decryptUpdate(ByteView(sealed).subspan(off, n),
                          ByteSpan(out).subspan(off, n));
        off += n;
        i++;
    }
    EXPECT_TRUE(dec.checkTag(ByteView(sealed).subspan(pt.size(), 16)));
    EXPECT_EQ(out, pt);
}

TEST(AesGcm, InPlaceStreamingDecrypt)
{
    // The NIC engine decrypts packet payloads in place; the GHASH
    // must still run over the (overwritten) ciphertext.
    Bytes key(16, 0x31);
    Bytes iv(12, 0x32);
    Bytes pt(4000);
    fillDeterministic(pt, 8, 0);
    AesGcm enc(key);
    Bytes sealed = enc.seal(iv, {}, pt);

    AesGcm dec(key);
    dec.start(iv, {});
    Bytes buf(sealed.begin(), sealed.end() - 16);
    size_t off = 0;
    size_t chunks[] = {1460, 16, 1, 900, 33, 4000};
    size_t i = 0;
    while (off < buf.size()) {
        size_t n = std::min(chunks[i++ % std::size(chunks)],
                            buf.size() - off);
        ByteSpan c = ByteSpan(buf).subspan(off, n);
        dec.decryptUpdate(c, c); // in place
        off += n;
    }
    EXPECT_TRUE(dec.checkTag(ByteView(sealed).subspan(pt.size())));
    EXPECT_EQ(buf, pt);
}

TEST(AesGcm, InPlaceStreamingEncrypt)
{
    Bytes key(16, 0x33);
    Bytes iv(12, 0x34);
    Bytes pt(2048);
    fillDeterministic(pt, 9, 0);
    AesGcm ref(key);
    Bytes sealed = ref.seal(iv, {}, pt);

    AesGcm enc(key);
    enc.start(iv, {});
    Bytes buf = pt;
    size_t off = 0;
    while (off < buf.size()) {
        size_t n = std::min<size_t>(700, buf.size() - off);
        ByteSpan c = ByteSpan(buf).subspan(off, n);
        enc.encryptUpdate(c, c);
        off += n;
    }
    uint8_t tag[16];
    enc.finishTag(tag);
    EXPECT_EQ(0, std::memcmp(buf.data(), sealed.data(), pt.size()));
    EXPECT_EQ(0, std::memcmp(tag, sealed.data() + pt.size(), 16));
}

TEST(AesGcm, DistinctIvsGiveDistinctCiphertexts)
{
    Bytes key(16, 0x55);
    Bytes pt(64, 0xaa);
    AesGcm gcm(key);
    Bytes iv1(12, 0x01);
    Bytes iv2(12, 0x02);
    Bytes c1 = gcm.seal(iv1, {}, pt);
    Bytes c2 = gcm.seal(iv2, {}, pt);
    EXPECT_NE(c1, c2);
}

TEST(AesGcm, TamperedAadFails)
{
    Bytes key(16, 0x11);
    Bytes iv(12, 0x22);
    Bytes pt(100, 0x33);
    AesGcm gcm(key);
    Bytes sealed = gcm.seal(iv, ascii("aad-1"), pt);
    Bytes out;
    EXPECT_FALSE(gcm.open(iv, ascii("aad-2"), sealed, out));
    EXPECT_TRUE(gcm.open(iv, ascii("aad-1"), sealed, out));
}

// ------------------------------------------------- kernel variants
//
// Everything above runs under the startup-selected dispatch (hw on
// capable CPUs, scalar otherwise, ANIC_CRYPTO_IMPL overrides). The
// tests below pin each compiled kernel variant explicitly and
// cross-check hw against the scalar reference.

std::vector<CryptoImpl>
compiledImpls()
{
    std::vector<CryptoImpl> v{CryptoImpl::Scalar};
    if (hwCryptoSupported())
        v.push_back(CryptoImpl::Hw);
    return v;
}

TEST(CryptoImplKat, Crc32cEveryVariant)
{
    for (const detail::Crc32cKernel &k : detail::crc32cKernels()) {
        SCOPED_TRACE(k.name);
        auto crc = [&k](ByteView d) {
            return ~k.update(0xffffffffu, d.data(), d.size());
        };
        EXPECT_EQ(crc(ascii("123456789")), 0xe3069283u);
        EXPECT_EQ(crc(Bytes(32, 0x00)), 0x8a9136aau);
        EXPECT_EQ(crc(Bytes(32, 0xff)), 0x62a8ab43u);
        Bytes incr(32);
        for (int i = 0; i < 32; i++)
            incr[i] = static_cast<uint8_t>(i);
        EXPECT_EQ(crc(incr), 0x46dd794eu);
    }
}

TEST(CryptoImplKat, GcmEveryVariant)
{
    for (CryptoImpl impl : compiledImpls()) {
        SCOPED_TRACE(cryptoImplName(impl));
        for (const GcmVector &v : kGcmVectors) {
            AesGcm gcm(fromHex(v.key), impl);
            Bytes pt = fromHex(v.pt);
            Bytes sealed = gcm.seal(fromHex(v.iv), fromHex(v.aad), pt);
            EXPECT_EQ(toHex(ByteView(sealed.data(), pt.size())), v.ct);
            EXPECT_EQ(toHex(ByteView(sealed.data() + pt.size(), 16)), v.tag);

            Bytes wire = fromHex(v.ct);
            Bytes tag = fromHex(v.tag);
            wire.insert(wire.end(), tag.begin(), tag.end());
            Bytes back;
            EXPECT_TRUE(gcm.open(fromHex(v.iv), fromHex(v.aad), wire, back));
            EXPECT_EQ(toHex(back), v.pt);
        }
    }
}

// ----------------------------------------------- CRC32C kernels

/** Raw CRC32C state advanced one bit at a time: the slowest, plainest
 *  reference. */
uint32_t
crcBitwise(uint32_t crc, const uint8_t *p, size_t n)
{
    for (size_t i = 0; i < n; i++) {
        crc ^= p[i];
        for (int bit = 0; bit < 8; bit++)
            crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
    }
    return crc;
}

/** x^e mod P by e single shifts, reflected like crc32cXPowMod. */
uint64_t
xPowModBitwise(unsigned e)
{
    uint64_t r = 1;
    for (unsigned i = 0; i < e; i++) {
        r <<= 1;
        if (r & (1ull << 32))
            r ^= 0x11edc6f41ull;
    }
    uint64_t reflected = 0;
    for (int d = 0; d < 32; d++) {
        if ((r >> d) & 1)
            reflected |= 1ull << (63 - d);
    }
    return reflected;
}

TEST(Crc32cKernels, ListsWhatThisCpuRuns)
{
    auto kernels = detail::crc32cKernels();
    ASSERT_FALSE(kernels.empty());
    EXPECT_STREQ(kernels.front().name, "scalar");
    // Crc32c dispatches to the widest kernel, unless forced scalar.
    const detail::HwOps *ops = detail::hwOps();
    const detail::Crc32cKernel &active =
        ops != nullptr ? kernels.back() : kernels.front();
    EXPECT_EQ(active.update, ops != nullptr ? ops->crc32cUpdate
                                            : &detail::crc32cScalarUpdate);
    std::string names;
    for (const detail::Crc32cKernel &k : kernels)
        names += std::string(names.empty() ? "" : " ") + k.name;
    const std::string &knob = util::Env::cryptoImpl();
    std::printf("crc32c kernels on this CPU: %s; ANIC_CRYPTO_IMPL=%s "
                "selects %s\n",
                names.c_str(), knob.empty() ? "auto" : knob.c_str(),
                active.name);
}

TEST(Crc32cKernels, FoldConstantsMatchBitwise)
{
    for (unsigned d : {256u, 64u, 48u, 32u, 16u}) {
        SCOPED_TRACE(d);
        detail::Crc32cFold k = detail::crc32cFoldConstants(d);
        EXPECT_EQ(k.early, xPowModBitwise(8 * d + 63));
        EXPECT_EQ(k.late, xPowModBitwise(8 * d - 1));
    }
}

/** One kernel by name, checked against the references above; skips
 *  when this CPU or build lacks it. */
class Crc32cKernelTest : public ::testing::TestWithParam<const char *>
{
  protected:
    void
    SetUp() override
    {
        for (const detail::Crc32cKernel &k : detail::crc32cKernels()) {
            if (std::strcmp(k.name, GetParam()) == 0)
                kernel_ = k.update;
        }
        if (kernel_ != nullptr)
            return;
        if (std::strcmp(GetParam(), "fold") == 0 &&
            !cpuFeatures().vpclmul512) {
            GTEST_SKIP() << "fold kernel untested: CPU lacks AVX-512F/DQ/"
                            "VL + VPCLMULQDQ";
        }
        GTEST_SKIP() << GetParam() << " kernel untested: not compiled in "
                     << "or CPU lacks its ISA";
    }

    uint32_t (*kernel_)(uint32_t, const uint8_t *, size_t) = nullptr;
};

TEST_P(Crc32cKernelTest, EveryShortLengthAtEveryOffset)
{
    // Lengths 0..1100 from offsets 0..63: every head alignment, every
    // tail, and the fold kernel's switch to folding at 256 B.
    constexpr size_t kMaxLen = 1100;
    Bytes buf(64 + kMaxLen);
    fillDeterministic(buf, 91, 0);
    Rng rng(92);
    std::vector<uint32_t> want(kMaxLen + 1);
    for (size_t off = 0; off < 64; off++) {
        const uint8_t *p = buf.data() + off;
        uint32_t init = static_cast<uint32_t>(rng.next());
        want[0] = init;
        for (size_t len = 1; len <= kMaxLen; len++)
            want[len] = crcBitwise(want[len - 1], p + len - 1, 1);
        for (size_t len = 0; len <= kMaxLen; len++) {
            ASSERT_EQ(kernel_(init, p, len), want[len])
                << "off=" << off << " len=" << len;
        }
    }
}

TEST_P(Crc32cKernelTest, LengthsAroundBlockEdges)
{
    std::vector<size_t> lengths;
    for (size_t edge : {16, 64, 256, 3 * 256, 3 * 8192, 256 * 1024})
        for (size_t len : {edge - 1, edge, edge + 1})
            lengths.push_back(len);
    Bytes buf(64 + 256 * 1024 + 1);
    fillDeterministic(buf, 93, 0);
    Rng rng(94);
    for (size_t off = 0; off < 64; off++) {
        for (size_t len : lengths) {
            const uint8_t *p = buf.data() + off;
            uint32_t init = static_cast<uint32_t>(rng.next());
            ASSERT_EQ(kernel_(init, p, len),
                      detail::crc32cScalarUpdate(init, p, len))
                << "off=" << off << " len=" << len;
        }
    }
}

TEST_P(Crc32cKernelTest, StreamingSplits)
{
    // The NIC digests a PDU across arbitrary packet boundaries; any
    // split must give the one-shot result.
    Bytes data(300000);
    fillDeterministic(data, 95, 0);
    Rng rng(96);
    for (int trial = 0; trial < 20; trial++) {
        uint32_t init = static_cast<uint32_t>(rng.next());
        uint32_t whole =
            detail::crc32cScalarUpdate(init, data.data(), data.size());
        uint32_t crc = init;
        size_t maxChunk = trial % 2 == 0 ? 2000 : 70000;
        for (size_t off = 0; off < data.size();) {
            size_t n = std::min<size_t>(rng.range(1, maxChunk),
                                        data.size() - off);
            crc = kernel_(crc, data.data() + off, n);
            off += n;
        }
        EXPECT_EQ(crc, whole) << "trial=" << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, Crc32cKernelTest,
                         ::testing::Values("scalar", "3way", "fold"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

// -------------------------------------------------- GCM kernels

TEST(GcmKernels, ListsWhatThisCpuRuns)
{
    auto kernels = detail::gcmKernels();
    EXPECT_EQ(kernels.empty(), !hwCryptoSupported());
    if (!kernels.empty()) {
        EXPECT_STREQ(kernels.front().name, "aesni");
    }
    // The hw table carries the widest kernel, unless forced scalar.
    const detail::HwOps *ops = detail::hwOps();
    const char *active = "scalar";
    if (ops != nullptr) {
        ASSERT_FALSE(kernels.empty());
        EXPECT_EQ(ops->gcmCryptBlocks, kernels.back().cryptBlocks);
        EXPECT_EQ(ops->ctrBlocks, kernels.back().ctrBlocks);
        active = kernels.back().name;
    }
    std::string names;
    for (const detail::GcmKernel &k : kernels)
        names += std::string(names.empty() ? "" : " ") + k.name;
    const std::string &knob = util::Env::cryptoImpl();
    std::printf("gcm kernels on this CPU: %s; ANIC_CRYPTO_IMPL=%s "
                "selects %s\n",
                names.empty() ? "(none)" : names.c_str(),
                knob.empty() ? "auto" : knob.c_str(), active);
}

TEST(GcmKernels, GhashInitPowersMatchBitwise)
{
    const detail::HwOps *ops = detail::hwOpsIfSupported();
    if (ops == nullptr)
        GTEST_SKIP() << "hw crypto kernels not available on this host";
    Rng rng(71);
    for (int trial = 0; trial < 20; trial++) {
        uint8_t h[16];
        for (auto &b : h)
            b = static_cast<uint8_t>(rng.next());
        alignas(16) uint8_t hpow[detail::kGhashPowers][16];
        ops->ghashInit(h, hpow);
        // H^(i+1) by repeated bitwise multiplies, stored byte-reversed.
        uint8_t p[16];
        std::memcpy(p, h, 16);
        for (size_t i = 0; i < detail::kGhashPowers; i++) {
            if (i > 0)
                Ghash::gf128MulBitwise(p, h, p);
            uint8_t want[16];
            for (int k = 0; k < 16; k++)
                want[k] = p[15 - k];
            EXPECT_EQ(0, std::memcmp(hpow[i], want, 16))
                << "trial " << trial << " H^" << i + 1;
        }
    }
}

/**
 * One bulk GCM kernel by name, checked block for block against the
 * scalar AES and GHASH; skips when this CPU or build lacks it.
 */
class GcmKernelTest : public ::testing::TestWithParam<const char *>
{
  protected:
    static constexpr size_t kMaxBlocks = 64;
    static constexpr uint32_t kFirstCounter = 0xfffffff0u;

    void
    SetUp() override
    {
        for (const detail::GcmKernel &k : detail::gcmKernels()) {
            if (std::strcmp(k.name, GetParam()) == 0)
                kernel_ = &k;
        }
        if (kernel_ == nullptr) {
            if (!hwCryptoSupported())
                GTEST_SKIP() << GetParam() << " kernel untested: hw crypto "
                             << "kernels not compiled in or CPU lacks AES-NI/"
                                "PCLMUL/SSE4.2";
            if (std::strcmp(GetParam(), "vaes") == 0 &&
                !cpuFeatures().vaes512)
                GTEST_SKIP() << "vaes kernel untested: CPU lacks AVX-512F/"
                                "BW/VL + VAES + VPCLMULQDQ";
            GTEST_SKIP() << GetParam() << " kernel untested: not compiled in";
        }
        Bytes key(16);
        fillDeterministic(key, 81, 0);
        aes_.setKey(key);
        aes_.exportRoundKeys(rk_);
        uint8_t zero[16] = {0};
        aes_.encryptBlock(zero, h_);
        detail::hwOpsIfSupported()->ghashInit(h_, hpow_);
        fillDeterministic(ByteSpan(iv_, 12), 82, 0);
        src_.resize(kMaxBlocks * 16);
        fillDeterministic(src_, 83, 0);
    }

    /** Scalar keystream block for 32-bit counter value @p c. */
    void
    keystream(uint32_t c, uint8_t ks[16]) const
    {
        uint8_t cb[16];
        std::memcpy(cb, iv_, 12);
        putBe32(cb + 12, c);
        aes_.encryptBlock(cb, ks);
    }

    const detail::GcmKernel *kernel_ = nullptr;
    Aes128 aes_;
    alignas(16) uint8_t rk_[Aes128::kRounds + 1][16];
    uint8_t h_[16];
    alignas(16) uint8_t hpow_[detail::kGhashPowers][16];
    uint8_t iv_[12];
    Bytes src_; // kMaxBlocks blocks of input
};

TEST_P(GcmKernelTest, CryptBlocksMatchesScalar)
{
    // Scalar results for every start counter and direction, over all
    // kMaxBlocks blocks: output bytes are a prefix property, the
    // GHASH accumulator is kept after every block.
    struct Ref
    {
        Bytes out;
        uint8_t y[kMaxBlocks + 1][16];
    };
    std::vector<Ref> refs(32);
    Ghash prefix;
    prefix.setH(h_, CryptoImpl::Scalar);
    uint8_t p[16];
    fillDeterministic(ByteSpan(p, 16), 84, 0);
    prefix.absorbBlock(p); // a nonzero starting accumulator
    for (uint32_t k = 0; k < 16; k++) {
        for (int enc = 0; enc < 2; enc++) {
            Ref &r = refs[2 * k + enc];
            r.out.resize(src_.size());
            Ghash g = prefix;
            g.digest(r.y[0]);
            for (size_t j = 0; j < kMaxBlocks; j++) {
                uint8_t ks[16];
                keystream(kFirstCounter + k + 1 + static_cast<uint32_t>(j),
                          ks);
                for (int b = 0; b < 16; b++)
                    r.out[16 * j + b] = src_[16 * j + b] ^ ks[b];
                g.absorbBlock(enc ? &r.out[16 * j] : &src_[16 * j]);
                g.digest(r.y[j + 1]);
            }
        }
    }

    // Every block count (each 16/12/8/4-block step and every tail
    // under 4), every in and out offset 0-63, in place and out of
    // place, both directions, and each start counter near the wrap.
    // Buffers are sized exactly, so sanitizers see any overrun.
    for (size_t nblk = 0; nblk <= kMaxBlocks; nblk++) {
        const size_t len = 16 * nblk;
        for (size_t off = 0; off < 64; off++) {
            const uint32_t k = static_cast<uint32_t>((nblk + off) % 16);
            for (int inPlace = 0; inPlace < 2; inPlace++) {
                for (int enc = 0; enc < 2; enc++) {
                    const Ref &r = refs[2 * k + enc];
                    const size_t outOff = inPlace ? off : (off * 37 + 11) % 64;
                    Bytes inBuf(off + len);
                    std::copy_n(src_.begin(), len, inBuf.begin() + off);
                    Bytes outBuf(inPlace ? 0 : outOff + len);
                    uint8_t *out = inPlace ? inBuf.data() + off
                                           : outBuf.data() + outOff;
                    uint8_t ctr[16];
                    std::memcpy(ctr, iv_, 12);
                    putBe32(ctr + 12, kFirstCounter + k);
                    uint8_t y[16];
                    std::memcpy(y, r.y[0], 16);

                    kernel_->cryptBlocks(rk_, hpow_, ctr, y,
                                         inBuf.data() + off, out, nblk,
                                         enc != 0);

                    SCOPED_TRACE(::testing::Message()
                                 << "nblk=" << nblk << " off=" << off
                                 << " outOff=" << outOff << " inPlace="
                                 << inPlace << " enc=" << enc << " ctr=0x"
                                 << std::hex << kFirstCounter + k);
                    // std::equal, not memcmp: out is null when len is 0.
                    ASSERT_TRUE(std::equal(out, out + len, r.out.begin()));
                    ASSERT_EQ(0, std::memcmp(y, r.y[nblk], 16));
                    ASSERT_EQ(0, std::memcmp(ctr, iv_, 12));
                    ASSERT_EQ(getBe32(ctr + 12),
                              kFirstCounter + k +
                                  static_cast<uint32_t>(nblk));
                }
            }
        }
    }
}

TEST_P(GcmKernelTest, CtrBlocksMatchesScalar)
{
    // Block j uses (uint32)(counter + j), so counters from 0xfffffff0
    // wrap inside the first 16-block step.
    std::vector<Bytes> refs(16);
    for (uint32_t k = 0; k < 16; k++) {
        refs[k].resize(src_.size());
        for (size_t j = 0; j < kMaxBlocks; j++) {
            uint8_t ks[16];
            keystream(kFirstCounter + k + static_cast<uint32_t>(j), ks);
            for (int b = 0; b < 16; b++)
                refs[k][16 * j + b] = src_[16 * j + b] ^ ks[b];
        }
    }
    for (size_t nblk = 0; nblk <= kMaxBlocks; nblk++) {
        const size_t len = 16 * nblk;
        for (size_t off = 0; off < 64; off++) {
            const uint32_t k = static_cast<uint32_t>((nblk + off) % 16);
            for (int inPlace = 0; inPlace < 2; inPlace++) {
                const size_t outOff = inPlace ? off : (off * 37 + 11) % 64;
                Bytes inBuf(off + len);
                std::copy_n(src_.begin(), len, inBuf.begin() + off);
                Bytes outBuf(inPlace ? 0 : outOff + len);
                uint8_t *out =
                    inPlace ? inBuf.data() + off : outBuf.data() + outOff;

                kernel_->ctrBlocks(rk_, iv_, uint64_t{kFirstCounter} + k,
                                   inBuf.data() + off, out, nblk);

                ASSERT_TRUE(std::equal(out, out + len, refs[k].begin()))
                    << "nblk=" << nblk << " off=" << off
                    << " outOff=" << outOff << " inPlace=" << inPlace
                    << " counter=0x" << std::hex << kFirstCounter + k;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Kernels, GcmKernelTest,
                         ::testing::Values("aesni", "vaes"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

class HwCrossCheck : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!hwCryptoSupported())
            GTEST_SKIP() << "hw crypto kernels not available on this host";
    }
};

TEST_F(HwCrossCheck, AesKeyScheduleMatchesScalar)
{
    for (int trial = 0; trial < 20; trial++) {
        Bytes key(16);
        fillDeterministic(key, 1000 + trial, 0);

        uint8_t scalar_rk[Aes128::kRounds + 1][16];
        Aes128(key).exportRoundKeys(scalar_rk);

        uint8_t hw_rk[Aes128::kRounds + 1][16];
        detail::hwOpsIfSupported()->aesKeyExpand(key.data(), hw_rk);

        EXPECT_EQ(0, std::memcmp(scalar_rk, hw_rk, sizeof scalar_rk))
            << "trial " << trial;
    }
}

TEST_F(HwCrossCheck, AesEncryptBlockMatchesScalar)
{
    for (int trial = 0; trial < 20; trial++) {
        Bytes key(16);
        Bytes pt(16);
        fillDeterministic(key, 2000 + trial, 0);
        fillDeterministic(pt, 3000 + trial, 0);

        uint8_t ct_scalar[16];
        Aes128 aes(key);
        aes.encryptBlock(pt.data(), ct_scalar);

        uint8_t rk[Aes128::kRounds + 1][16];
        aes.exportRoundKeys(rk);
        uint8_t ct_hw[16];
        detail::hwOpsIfSupported()->aesEncryptBlock(rk, pt.data(), ct_hw);

        EXPECT_EQ(0, std::memcmp(ct_scalar, ct_hw, 16)) << "trial " << trial;
    }
}

TEST_F(HwCrossCheck, GhashMatchesScalarPerBlockCount)
{
    // 1..9 blocks exercises the single-block path, the 4-block
    // aggregated path, and the 8-block fused path plus remainders.
    Rng rng(23);
    for (size_t nblk = 1; nblk <= 9; nblk++) {
        uint8_t h[16];
        for (auto &b : h)
            b = static_cast<uint8_t>(rng.next());
        Bytes data(nblk * 16);
        fillDeterministic(data, 4000 + nblk, 0);

        Ghash scalar;
        scalar.setH(h, CryptoImpl::Scalar);
        Ghash hw;
        hw.setH(h, CryptoImpl::Hw);
        scalar.absorbPadded(data);
        hw.absorbPadded(data);

        uint8_t ds[16], dh[16];
        scalar.digest(ds);
        hw.digest(dh);
        EXPECT_EQ(0, std::memcmp(ds, dh, 16)) << "nblk " << nblk;
    }
}

TEST_F(HwCrossCheck, GcmStreamingScalarVsHwRandomChunks)
{
    // Random split points hammer the keystream/GHASH carry handoff
    // between the byte path and the hw bulk path.
    Rng rng(31);
    for (int trial = 0; trial < 8; trial++) {
        Bytes key(16);
        Bytes iv(12);
        fillDeterministic(key, 5000 + trial, 0);
        fillDeterministic(iv, 6000 + trial, 0);
        size_t len = rng.range(1, 20000);
        Bytes pt(len);
        fillDeterministic(pt, 7000 + trial, 0);
        Bytes aad(rng.range(0, 40));
        fillDeterministic(aad, 8000 + trial, 0);

        AesGcm s(key, CryptoImpl::Scalar);
        AesGcm h(key, CryptoImpl::Hw);
        s.start(iv, aad);
        h.start(iv, aad);
        Bytes cs(len), ch(len);
        size_t off = 0;
        while (off < len) {
            size_t n = std::min<size_t>(rng.range(1, 2000), len - off);
            s.encryptUpdate(ByteView(pt).subspan(off, n),
                            ByteSpan(cs).subspan(off, n));
            h.encryptUpdate(ByteView(pt).subspan(off, n),
                            ByteSpan(ch).subspan(off, n));
            off += n;
        }
        uint8_t ts[16], th[16];
        s.finishTag(ts);
        h.finishTag(th);
        EXPECT_EQ(cs, ch) << "trial " << trial;
        EXPECT_EQ(0, std::memcmp(ts, th, 16)) << "trial " << trial;

        // Decrypt the hw ciphertext with the scalar engine and vice
        // versa, on unaligned buffers.
        Bytes mis(len + 3 + 16);
        std::memcpy(mis.data() + 3, ch.data(), len);
        AesGcm ds(key, CryptoImpl::Scalar);
        ds.start(iv, aad);
        Bytes outs(len);
        ds.decryptUpdate(ByteView(mis.data() + 3, len), outs);
        EXPECT_TRUE(ds.checkTag(th));
        EXPECT_EQ(outs, pt);

        AesGcm dh(key, CryptoImpl::Hw);
        dh.start(iv, aad);
        Bytes outh(len);
        dh.decryptUpdate(ByteView(mis.data() + 3, len), outh);
        EXPECT_TRUE(dh.checkTag(ts));
        EXPECT_EQ(outh, pt);
    }
}

TEST_F(HwCrossCheck, CtrAtOffsetScalarVsHw)
{
    Bytes key(16);
    fillDeterministic(key, 42, 0);
    Bytes iv(12);
    fillDeterministic(iv, 43, 0);
    Aes128 aes(key);

    // Offsets hitting block boundaries, mid-block positions, and the
    // partial head+bulk+partial tail combination.
    const uint64_t offsets[] = {0, 1, 15, 16, 17, 100, 1460, 4096 + 5};
    const size_t lengths[] = {1, 15, 16, 17, 64, 333, 1460, 5000};
    for (uint64_t off : offsets) {
        for (size_t len : lengths) {
            Bytes a(len), b(len);
            fillDeterministic(a, off * 131 + len, 0);
            b = a;
            aesGcmCtrAtOffset(aes, iv, off, a, CryptoImpl::Scalar);
            aesGcmCtrAtOffset(aes, iv, off, b, CryptoImpl::Hw);
            EXPECT_EQ(a, b) << "off=" << off << " len=" << len;
        }
    }
}

TEST_F(HwCrossCheck, EnvOverrideForcesScalar)
{
    // activeCryptoImpl() is resolved once at startup; this only
    // verifies the name mapping stays consistent with the enum.
    EXPECT_STREQ(cryptoImplName(CryptoImpl::Scalar), "scalar");
    EXPECT_STREQ(cryptoImplName(CryptoImpl::Hw), "hw");
    EXPECT_STREQ(activeCryptoImplName(), cryptoImplName(activeCryptoImpl()));
}

} // namespace
} // namespace anic::crypto
