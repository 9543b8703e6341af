#include "crypto/aes.hh"

#include "util/panic.hh"

namespace anic::crypto {

namespace {

/** GF(2^8) multiply by 2 (xtime). */
inline uint8_t
xtime(uint8_t x)
{
    return static_cast<uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0x00));
}

/** GF(2^8) multiply. */
uint8_t
gmul(uint8_t a, uint8_t b)
{
    uint8_t p = 0;
    while (b) {
        if (b & 1)
            p ^= a;
        a = xtime(a);
        b >>= 1;
    }
    return p;
}

struct AesTables
{
    uint8_t sbox[256];
    // T-tables for the encryption rounds; Te[1..3] are byte rotations
    // of Te[0].
    uint32_t te[4][256];

    AesTables()
    {
        // Build the S-box from multiplicative inverses + affine map.
        // First compute inverses via exponentiation tables on
        // generator 3.
        uint8_t exp[256];
        uint8_t log[256];
        uint8_t x = 1;
        for (int i = 0; i < 256; i++) {
            exp[i] = x;
            log[x] = static_cast<uint8_t>(i);
            x = static_cast<uint8_t>(x ^ xtime(x)); // multiply by 3
        }
        auto inv = [&](uint8_t v) -> uint8_t {
            if (v == 0)
                return 0;
            return exp[(255 - log[v]) % 255];
        };
        for (int i = 0; i < 256; i++) {
            uint8_t v = inv(static_cast<uint8_t>(i));
            uint8_t s = v;
            // Affine transformation: s ^= rotl(v,1..4) ^ 0x63.
            for (int r = 1; r <= 4; r++)
                s ^= static_cast<uint8_t>((v << r) | (v >> (8 - r)));
            s ^= 0x63;
            sbox[i] = s;
        }

        for (int i = 0; i < 256; i++) {
            uint8_t s = sbox[i];
            uint32_t t0 = (static_cast<uint32_t>(gmul(s, 2)) << 24) |
                          (static_cast<uint32_t>(s) << 16) |
                          (static_cast<uint32_t>(s) << 8) |
                          static_cast<uint32_t>(gmul(s, 3));
            te[0][i] = t0;
            te[1][i] = (t0 >> 8) | (t0 << 24);
            te[2][i] = (t0 >> 16) | (t0 << 16);
            te[3][i] = (t0 >> 24) | (t0 << 8);
        }
    }
};

const AesTables &
tbl()
{
    static const AesTables t;
    return t;
}

} // namespace

void
Aes128::setKey(ByteView key)
{
    ANIC_ASSERT(key.size() == kKeySize, "AES-128 key must be 16 bytes");
    const AesTables &t = tbl();

    for (int i = 0; i < 4; i++)
        ek_[i] = getBe32(key.data() + 4 * i);

    uint32_t rcon = 0x01000000u;
    for (int i = 4; i < 4 * (kRounds + 1); i++) {
        uint32_t tmp = ek_[i - 1];
        if (i % 4 == 0) {
            // RotWord + SubWord + Rcon.
            tmp = (tmp << 8) | (tmp >> 24);
            tmp = (static_cast<uint32_t>(t.sbox[tmp >> 24]) << 24) |
                  (static_cast<uint32_t>(t.sbox[(tmp >> 16) & 0xff]) << 16) |
                  (static_cast<uint32_t>(t.sbox[(tmp >> 8) & 0xff]) << 8) |
                  static_cast<uint32_t>(t.sbox[tmp & 0xff]);
            tmp ^= rcon;
            rcon = static_cast<uint32_t>(xtime(static_cast<uint8_t>(rcon >> 24))) << 24;
        }
        ek_[i] = ek_[i - 4] ^ tmp;
    }
}

void
Aes128::exportRoundKeys(uint8_t rk[kRounds + 1][16]) const
{
    for (int r = 0; r <= kRounds; r++)
        for (int w = 0; w < 4; w++)
            putBe32(&rk[r][4 * w], ek_[4 * r + w]);
}

void
Aes128::encryptBlock(const uint8_t in[16], uint8_t out[16]) const
{
    const AesTables &t = tbl();

    uint32_t s0 = getBe32(in) ^ ek_[0];
    uint32_t s1 = getBe32(in + 4) ^ ek_[1];
    uint32_t s2 = getBe32(in + 8) ^ ek_[2];
    uint32_t s3 = getBe32(in + 12) ^ ek_[3];

    uint32_t t0;
    uint32_t t1;
    uint32_t t2;
    uint32_t t3;
    for (int r = 1; r < kRounds; r++) {
        t0 = t.te[0][s0 >> 24] ^ t.te[1][(s1 >> 16) & 0xff] ^
             t.te[2][(s2 >> 8) & 0xff] ^ t.te[3][s3 & 0xff] ^ ek_[4 * r];
        t1 = t.te[0][s1 >> 24] ^ t.te[1][(s2 >> 16) & 0xff] ^
             t.te[2][(s3 >> 8) & 0xff] ^ t.te[3][s0 & 0xff] ^ ek_[4 * r + 1];
        t2 = t.te[0][s2 >> 24] ^ t.te[1][(s3 >> 16) & 0xff] ^
             t.te[2][(s0 >> 8) & 0xff] ^ t.te[3][s1 & 0xff] ^ ek_[4 * r + 2];
        t3 = t.te[0][s3 >> 24] ^ t.te[1][(s0 >> 16) & 0xff] ^
             t.te[2][(s1 >> 8) & 0xff] ^ t.te[3][s2 & 0xff] ^ ek_[4 * r + 3];
        s0 = t0;
        s1 = t1;
        s2 = t2;
        s3 = t3;
    }

    // Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
    const uint8_t *sb = t.sbox;
    t0 = (static_cast<uint32_t>(sb[s0 >> 24]) << 24) |
         (static_cast<uint32_t>(sb[(s1 >> 16) & 0xff]) << 16) |
         (static_cast<uint32_t>(sb[(s2 >> 8) & 0xff]) << 8) |
         static_cast<uint32_t>(sb[s3 & 0xff]);
    t1 = (static_cast<uint32_t>(sb[s1 >> 24]) << 24) |
         (static_cast<uint32_t>(sb[(s2 >> 16) & 0xff]) << 16) |
         (static_cast<uint32_t>(sb[(s3 >> 8) & 0xff]) << 8) |
         static_cast<uint32_t>(sb[s0 & 0xff]);
    t2 = (static_cast<uint32_t>(sb[s2 >> 24]) << 24) |
         (static_cast<uint32_t>(sb[(s3 >> 16) & 0xff]) << 16) |
         (static_cast<uint32_t>(sb[(s0 >> 8) & 0xff]) << 8) |
         static_cast<uint32_t>(sb[s1 & 0xff]);
    t3 = (static_cast<uint32_t>(sb[s3 >> 24]) << 24) |
         (static_cast<uint32_t>(sb[(s0 >> 16) & 0xff]) << 16) |
         (static_cast<uint32_t>(sb[(s1 >> 8) & 0xff]) << 8) |
         static_cast<uint32_t>(sb[s2 & 0xff]);

    putBe32(out, t0 ^ ek_[4 * kRounds]);
    putBe32(out + 4, t1 ^ ek_[4 * kRounds + 1]);
    putBe32(out + 8, t2 ^ ek_[4 * kRounds + 2]);
    putBe32(out + 12, t3 ^ ek_[4 * kRounds + 3]);
}

} // namespace anic::crypto
