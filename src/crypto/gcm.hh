/**
 * @file
 * AES-128-GCM (NIST SP 800-38D) with a streaming interface.
 *
 * Streaming matters here: both kTLS software fallback and the NIC
 * offload engine process a TLS record packet-by-packet, updating the
 * GCM state incrementally and only producing/validating the tag when
 * the final record bytes arrive.
 *
 * Each context binds to a kernel set at setKey()/setH() time: the
 * portable scalar reference kernels, or (default, when the machine
 * supports it) the hardware kernels dispatched through crypto/cpu.hh,
 * whose bulk path is the 16-block VAES kernel on CPUs with AVX-512
 * VAES + VPCLMULQDQ and the 8-block AES-NI/PCLMUL one otherwise. All
 * produce bit-identical output; tests force each variant explicitly
 * to cross-check them.
 */

#ifndef ANIC_CRYPTO_GCM_HH
#define ANIC_CRYPTO_GCM_HH

#include <cstdint>

#include "crypto/aes.hh"
#include "crypto/cpu.hh"
#include "util/bytes.hh"

namespace anic::crypto {

namespace detail {
struct HwOps;
}

/**
 * GHASH over GF(2^128); scalar kernel uses 4-bit tables (mbedTLS-
 * style), hardware kernels use carry-less multiplies against the
 * powers H^1..H^16 with aggregated reduction. A context reads only
 * its own kernel set's tables, so the two share storage. Exposed
 * separately so tests can cross-check both implementations against
 * the bitwise reference.
 */
class Ghash
{
  public:
    Ghash() = default;

    /** Initializes from the hash subkey H using the active kernels. */
    void setH(const uint8_t h[16]);

    /** Same, with an explicit kernel choice (tests/benches). */
    void setH(const uint8_t h[16], CryptoImpl impl);

    /** Absorbs exactly one 16-byte block. */
    void absorbBlock(const uint8_t block[16]);

    /** Absorbs data, zero-padding the final partial block. */
    void absorbPadded(ByteView data);

    /** Current GHASH accumulator (16 bytes). */
    void digest(uint8_t out[16]) const { std::memcpy(out, y_, 16); }

    void reset() { std::memset(y_, 0, 16); }

    /** Bitwise reference multiply: out = x * y in GF(2^128). */
    static void gf128MulBitwise(const uint8_t x[16], const uint8_t y[16],
                                uint8_t out[16]);

  private:
    friend class AesGcm;

    void mulH(uint8_t x[16]) const;

    /** The scalar kernel's 4-bit multiples of H. */
    struct Tables
    {
        uint64_t hl[16];
        uint64_t hh[16];
    };

    const detail::HwOps *hw_ = nullptr; // null: scalar tables
    uint8_t y_[16] = {0};
    union
    {
        Tables tab_ = {};
        /** Byte-reversed H^1..H^16 (hw kernels, detail::kGhashPowers). */
        alignas(16) uint8_t hpow_[16][16];
    };
};

/**
 * Streaming AES-128-GCM encrypt/decrypt context for 96-bit IVs.
 *
 * Usage: setKey() once per key; then per message start() -> any number
 * of update() calls -> finishTag()/checkTag(). A context can also be
 * "fast-forwarded" only in the sense the paper requires: processing
 * always starts at a message boundary, never mid-message.
 */
class AesGcm
{
  public:
    static constexpr size_t kTagSize = 16;
    static constexpr size_t kIvSize = 12;

    AesGcm() = default;
    explicit AesGcm(ByteView key) { setKey(key); }
    AesGcm(ByteView key, CryptoImpl impl) { setKey(key, impl); }

    /** Binds the key using the active kernel set. */
    void setKey(ByteView key);

    /** Same, with an explicit kernel choice (tests/benches). */
    void setKey(ByteView key, CryptoImpl impl);

    /** The block cipher under the key (raw CTR over GCM's layout). */
    const Aes128 &aes() const { return aes_; }

    /** The kernel set this context is bound to. */
    CryptoImpl impl() const
    {
        return hw_ != nullptr ? CryptoImpl::Hw : CryptoImpl::Scalar;
    }

    /** Starts a message with a 96-bit IV and associated data. */
    void start(ByteView iv, ByteView aad);

    /** Encrypts @p in into @p out (sizes equal); any chunking. */
    void encryptUpdate(ByteView in, ByteSpan out);

    /** Decrypts @p in into @p out (sizes equal); any chunking. */
    void decryptUpdate(ByteView in, ByteSpan out);

    /** Finalizes and writes the 16-byte tag. */
    void finishTag(ByteSpan tag);

    /** Finalizes and constant-time-compares against @p tag. */
    bool checkTag(ByteView tag);

    /**
     * One-shot helpers (allocate the output buffer).
     * sealed = ciphertext || tag; open() returns false on tag failure.
     */
    Bytes seal(ByteView iv, ByteView aad, ByteView plaintext);
    bool open(ByteView iv, ByteView aad, ByteView sealed, Bytes &plaintext);

  private:
    void ctrBlock(uint8_t out[16]);
    void encryptBlock(const uint8_t in[16], uint8_t out[16]) const;
    void cryptUpdate(ByteView in, ByteSpan out, bool encrypt);

    Aes128 aes_;
    Ghash ghash_;
    const detail::HwOps *hw_ = nullptr; // null: scalar kernels
    alignas(16) uint8_t rk_[11][16];    // round keys (hw kernels)
    uint8_t j0_[16];       // pre-counter block (for the tag)
    uint8_t ctr_[16];      // running counter block
    uint8_t ks_[16];       // current keystream block
    size_t ksUsed_ = 16;   // consumed bytes of ks_
    uint8_t ghashCarry_[16]; // partial ciphertext block awaiting ghash
    size_t carryLen_ = 0;
    uint64_t aadLen_ = 0;
    uint64_t dataLen_ = 0;
    bool keySet_ = false;
};

/**
 * Raw AES-CTR transform using GCM's keystream layout (96-bit IV,
 * counter block starts at 2) beginning at an arbitrary byte offset of
 * the message. Used by software fallback to re-encrypt NIC-decrypted
 * packet ranges so a partially-offloaded record can be authenticated
 * (paper §5.2 "Partial offload"), and by placement-style engines that
 * resume mid-message. Routed through the dispatched CTR kernel so the
 * NIC resync path gets the hardware speed too.
 */
void aesGcmCtrAtOffset(const Aes128 &aes, ByteView iv, uint64_t byteOff,
                       ByteSpan data);

/** Same, with an explicit kernel choice (tests/benches). */
void aesGcmCtrAtOffset(const Aes128 &aes, ByteView iv, uint64_t byteOff,
                       ByteSpan data, CryptoImpl impl);

} // namespace anic::crypto

#endif // ANIC_CRYPTO_GCM_HH
