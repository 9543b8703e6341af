#include "crypto/gcm.hh"

#include "crypto/kernels.hh"
#include "util/panic.hh"

namespace anic::crypto {

namespace {

// Reduction constants for the 4-bit table method: last4[rem] << 48 is
// the polynomial correction after shifting the accumulator right by 4.
const uint64_t kLast4[16] = {
    0x0000, 0x1c20, 0x3840, 0x2460, 0x7080, 0x6ca0, 0x48c0, 0x54e0,
    0xe100, 0xfd20, 0xd940, 0xc560, 0x9180, 0x8da0, 0xa9c0, 0xb5e0,
};

const detail::HwOps *
opsForImpl(CryptoImpl impl)
{
    if (impl != CryptoImpl::Hw)
        return nullptr;
    const detail::HwOps *ops = detail::hwOpsIfSupported();
    ANIC_ASSERT(ops != nullptr, "hw crypto kernels unavailable");
    return ops;
}

} // namespace

void
Ghash::setH(const uint8_t h[16])
{
    setH(h, activeCryptoImpl());
}

void
Ghash::setH(const uint8_t h[16], CryptoImpl impl)
{
    static_assert(sizeof(hpow_) == detail::kGhashPowers * 16);
    hw_ = opsForImpl(impl);
    if (hw_ != nullptr) {
        hw_->ghashInit(h, hpow_);
        reset();
        return;
    }

    uint64_t *hl = tab_.hl;
    uint64_t *hh = tab_.hh;
    uint64_t vh = getBe64(h);
    uint64_t vl = getBe64(h + 8);

    hl[8] = vl;
    hh[8] = vh;
    // Entries 4, 2, 1: successive divisions by x (right shift with
    // reduction by the GCM polynomial).
    for (int i = 4; i > 0; i >>= 1) {
        uint32_t t = static_cast<uint32_t>(vl & 1);
        vl = (vh << 63) | (vl >> 1);
        vh = (vh >> 1) ^ (t ? (0xe1ull << 56) : 0);
        hl[i] = vl;
        hh[i] = vh;
    }
    hl[0] = 0;
    hh[0] = 0;
    // Remaining entries by linearity.
    for (int i = 2; i <= 8; i *= 2) {
        for (int j = 1; j < i; j++) {
            hh[i + j] = hh[i] ^ hh[j];
            hl[i + j] = hl[i] ^ hl[j];
        }
    }
    reset();
}

void
Ghash::mulH(uint8_t x[16]) const
{
    const uint64_t *hl = tab_.hl;
    const uint64_t *hh = tab_.hh;
    uint8_t lo = x[15] & 0xf;
    uint64_t zh = hh[lo];
    uint64_t zl = hl[lo];

    for (int i = 15; i >= 0; i--) {
        lo = x[i] & 0xf;
        uint8_t hi = x[i] >> 4;

        if (i != 15) {
            uint8_t rem = static_cast<uint8_t>(zl & 0xf);
            zl = (zh << 60) | (zl >> 4);
            zh = zh >> 4;
            zh ^= kLast4[rem] << 48;
            zh ^= hh[lo];
            zl ^= hl[lo];
        }
        uint8_t rem = static_cast<uint8_t>(zl & 0xf);
        zl = (zh << 60) | (zl >> 4);
        zh = zh >> 4;
        zh ^= kLast4[rem] << 48;
        zh ^= hh[hi];
        zl ^= hl[hi];
    }
    putBe64(x, zh);
    putBe64(x + 8, zl);
}

void
Ghash::absorbBlock(const uint8_t block[16])
{
    if (hw_ != nullptr) {
        hw_->ghashBlocks(hpow_, y_, block, 1);
        return;
    }
    for (int i = 0; i < 16; i++)
        y_[i] ^= block[i];
    mulH(y_);
}

void
Ghash::absorbPadded(ByteView data)
{
    size_t off = 0;
    if (hw_ != nullptr) {
        size_t nblk = data.size() / 16;
        if (nblk > 0) {
            hw_->ghashBlocks(hpow_, y_, data.data(), nblk);
            off = nblk * 16;
        }
    } else {
        while (off + 16 <= data.size()) {
            absorbBlock(data.data() + off);
            off += 16;
        }
    }
    if (off < data.size()) {
        uint8_t block[16] = {0};
        std::memcpy(block, data.data() + off, data.size() - off);
        absorbBlock(block);
    }
}

void
Ghash::gf128MulBitwise(const uint8_t x[16], const uint8_t y[16],
                       uint8_t out[16])
{
    // NIST SP 800-38D algorithm 1 (right-shift convention): bit 0 is
    // the most significant bit of byte 0.
    uint8_t z[16] = {0};
    uint8_t v[16];
    std::memcpy(v, y, 16);

    for (int i = 0; i < 128; i++) {
        int xbit = (x[i / 8] >> (7 - (i % 8))) & 1;
        if (xbit) {
            for (int k = 0; k < 16; k++)
                z[k] ^= v[k];
        }
        int lsb = v[15] & 1;
        // v >>= 1 (across the 128-bit value, msb-first layout).
        for (int k = 15; k > 0; k--)
            v[k] = static_cast<uint8_t>((v[k] >> 1) | (v[k - 1] << 7));
        v[0] >>= 1;
        if (lsb)
            v[0] ^= 0xe1;
    }
    std::memcpy(out, z, 16);
}

void
AesGcm::setKey(ByteView key)
{
    setKey(key, activeCryptoImpl());
}

void
AesGcm::setKey(ByteView key, CryptoImpl impl)
{
    aes_.setKey(key);
    hw_ = opsForImpl(impl);
    uint8_t zero[16] = {0};
    uint8_t h[16];
    if (hw_ != nullptr) {
        hw_->aesKeyExpand(key.data(), rk_);
        hw_->aesEncryptBlock(rk_, zero, h);
    } else {
        aes_.encryptBlock(zero, h);
    }
    ghash_.setH(h, impl);
    keySet_ = true;
}

void
AesGcm::start(ByteView iv, ByteView aad)
{
    ANIC_ASSERT(keySet_, "AesGcm used before setKey");
    ANIC_ASSERT(iv.size() == kIvSize, "only 96-bit IVs supported");

    std::memcpy(j0_, iv.data(), 12);
    putBe32(j0_ + 12, 1);
    std::memcpy(ctr_, j0_, 16);

    ghash_.reset();
    ghash_.absorbPadded(aad);
    aadLen_ = aad.size();
    dataLen_ = 0;
    ksUsed_ = 16;
    carryLen_ = 0;
}

void
AesGcm::encryptBlock(const uint8_t in[16], uint8_t out[16]) const
{
    if (hw_ != nullptr)
        hw_->aesEncryptBlock(rk_, in, out);
    else
        aes_.encryptBlock(in, out);
}

void
AesGcm::ctrBlock(uint8_t out[16])
{
    uint32_t c = getBe32(ctr_ + 12) + 1;
    putBe32(ctr_ + 12, c);
    encryptBlock(ctr_, out);
}

void
AesGcm::cryptUpdate(ByteView in, ByteSpan out, bool encrypt)
{
    ANIC_ASSERT(out.size() >= in.size());
    size_t i = 0;
    const size_t n = in.size();

    // Byte path: drains/refills partial keystream + GHASH carry
    // state so chunking at arbitrary (packet) boundaries works.
    auto byte_path = [&](size_t upto) {
        for (; i < upto; i++) {
            if (ksUsed_ == 16) {
                ctrBlock(ks_);
                ksUsed_ = 0;
            }
            uint8_t c_in = in[i];
            uint8_t o = c_in ^ ks_[ksUsed_++];
            out[i] = o;
            // GHASH runs over the ciphertext in both directions.
            uint8_t ct = encrypt ? o : c_in;
            ghashCarry_[carryLen_++] = ct;
            if (carryLen_ == 16) {
                ghash_.absorbBlock(ghashCarry_);
                carryLen_ = 0;
            }
        }
    };

    // Align to a block boundary (keystream consumption and the GHASH
    // carry advance in lockstep, so one misalignment covers both).
    if (ksUsed_ != 16 || carryLen_ != 0) {
        size_t mis = carryLen_ != 0 ? carryLen_ : ksUsed_;
        if (mis != 0 && mis != 16)
            byte_path(std::min(n, i + (16 - mis)));
    }

    // Block fast path: whole keystream blocks, direct GHASH
    // absorption — this is what the simulator's throughput rides on.
    if (hw_ != nullptr) {
        // Fused hardware kernel: 8-way AES-NI CTR + PCLMUL GHASH.
        if (i + 16 <= n && ksUsed_ == 16 && carryLen_ == 0) {
            size_t nblk = (n - i) / 16;
            hw_->gcmCryptBlocks(rk_, ghash_.hpow_, ctr_, ghash_.y_,
                                in.data() + i, out.data() + i, nblk,
                                encrypt);
            i += nblk * 16;
        }
    } else {
        while (i + 16 <= n && ksUsed_ == 16 && carryLen_ == 0) {
            ctrBlock(ks_);
            const uint8_t *src = in.data() + i;
            uint8_t *dst = out.data() + i;
            // GHASH always runs over the ciphertext. On decrypt the
            // ciphertext must be captured before the XOR because
            // callers routinely decrypt in place (dst aliases src).
            uint8_t ct[16];
            if (!encrypt)
                std::memcpy(ct, src, 16);
            uint64_t s0;
            uint64_t s1;
            uint64_t k0;
            uint64_t k1;
            std::memcpy(&s0, src, 8);
            std::memcpy(&s1, src + 8, 8);
            std::memcpy(&k0, ks_, 8);
            std::memcpy(&k1, ks_ + 8, 8);
            uint64_t o0 = s0 ^ k0;
            uint64_t o1 = s1 ^ k1;
            std::memcpy(dst, &o0, 8);
            std::memcpy(dst + 8, &o1, 8);
            ghash_.absorbBlock(encrypt ? dst : ct);
            i += 16;
        }
    }

    byte_path(n);
    dataLen_ += n;
}

void
AesGcm::encryptUpdate(ByteView in, ByteSpan out)
{
    cryptUpdate(in, out, true);
}

void
AesGcm::decryptUpdate(ByteView in, ByteSpan out)
{
    cryptUpdate(in, out, false);
}

void
AesGcm::finishTag(ByteSpan tag)
{
    ANIC_ASSERT(tag.size() >= kTagSize);
    if (carryLen_ > 0) {
        uint8_t block[16] = {0};
        std::memcpy(block, ghashCarry_, carryLen_);
        ghash_.absorbBlock(block);
        carryLen_ = 0;
    }
    uint8_t lens[16];
    putBe64(lens, aadLen_ * 8);
    putBe64(lens + 8, dataLen_ * 8);
    ghash_.absorbBlock(lens);

    uint8_t s[16];
    ghash_.digest(s);
    uint8_t ekj0[16];
    encryptBlock(j0_, ekj0);
    for (int i = 0; i < 16; i++)
        tag[i] = s[i] ^ ekj0[i];
}

bool
AesGcm::checkTag(ByteView tag)
{
    ANIC_ASSERT(tag.size() == kTagSize);
    uint8_t computed[16];
    finishTag(computed);
    uint8_t diff = 0;
    for (int i = 0; i < 16; i++)
        diff |= computed[i] ^ tag[i];
    return diff == 0;
}

Bytes
AesGcm::seal(ByteView iv, ByteView aad, ByteView plaintext)
{
    Bytes out(plaintext.size() + kTagSize);
    start(iv, aad);
    encryptUpdate(plaintext, ByteSpan(out.data(), plaintext.size()));
    finishTag(ByteSpan(out.data() + plaintext.size(), kTagSize));
    return out;
}

bool
AesGcm::open(ByteView iv, ByteView aad, ByteView sealed, Bytes &plaintext)
{
    if (sealed.size() < kTagSize)
        return false;
    size_t ptlen = sealed.size() - kTagSize;
    plaintext.resize(ptlen);
    start(iv, aad);
    decryptUpdate(sealed.subspan(0, ptlen), plaintext);
    return checkTag(sealed.subspan(ptlen));
}

namespace {

void
ctrAtOffsetImpl(const Aes128 &aes, ByteView iv, uint64_t byteOff,
                ByteSpan data, const detail::HwOps *ops)
{
    ANIC_ASSERT(iv.size() == AesGcm::kIvSize);
    uint64_t block = byteOff / 16;
    size_t skip = static_cast<size_t>(byteOff % 16);
    // GCM encrypts data with counters 2, 3, ... (1 is the tag block).
    uint64_t counter = 2 + block;
    size_t i = 0;

    if (ops != nullptr) {
        uint8_t rk[11][16];
        aes.exportRoundKeys(rk);
        uint8_t ctrb[16];
        std::memcpy(ctrb, iv.data(), 12);
        uint8_t ks[16];
        // Partial head block up to the next block boundary.
        if (skip != 0 && i < data.size()) {
            putBe32(ctrb + 12, static_cast<uint32_t>(counter++));
            ops->aesEncryptBlock(rk, ctrb, ks);
            for (size_t k = skip; k < 16 && i < data.size(); k++)
                data[i++] ^= ks[k];
        }
        size_t nblk = (data.size() - i) / 16;
        if (nblk > 0) {
            ops->ctrBlocks(rk, iv.data(), counter, data.data() + i,
                           data.data() + i, nblk);
            counter += nblk;
            i += nblk * 16;
        }
        if (i < data.size()) {
            putBe32(ctrb + 12, static_cast<uint32_t>(counter));
            ops->aesEncryptBlock(rk, ctrb, ks);
            for (size_t k = 0; i < data.size(); k++)
                data[i++] ^= ks[k];
        }
        return;
    }

    uint8_t ctr[16];
    std::memcpy(ctr, iv.data(), 12);
    uint8_t ks[16];
    while (i < data.size()) {
        putBe32(ctr + 12, static_cast<uint32_t>(counter++));
        aes.encryptBlock(ctr, ks);
        if (skip == 0 && i + 16 <= data.size()) {
            uint64_t d0;
            uint64_t d1;
            uint64_t k0;
            uint64_t k1;
            std::memcpy(&d0, data.data() + i, 8);
            std::memcpy(&d1, data.data() + i + 8, 8);
            std::memcpy(&k0, ks, 8);
            std::memcpy(&k1, ks + 8, 8);
            d0 ^= k0;
            d1 ^= k1;
            std::memcpy(data.data() + i, &d0, 8);
            std::memcpy(data.data() + i + 8, &d1, 8);
            i += 16;
            continue;
        }
        for (size_t k = skip; k < 16 && i < data.size(); k++)
            data[i++] ^= ks[k];
        skip = 0;
    }
}

} // namespace

void
aesGcmCtrAtOffset(const Aes128 &aes, ByteView iv, uint64_t byteOff,
                  ByteSpan data)
{
    ctrAtOffsetImpl(aes, iv, byteOff, data, detail::hwOps());
}

void
aesGcmCtrAtOffset(const Aes128 &aes, ByteView iv, uint64_t byteOff,
                  ByteSpan data, CryptoImpl impl)
{
    ctrAtOffsetImpl(aes, iv, byteOff, data, opsForImpl(impl));
}

} // namespace anic::crypto
