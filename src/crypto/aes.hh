/**
 * @file
 * AES-128 block cipher (FIPS-197), encryption only: GCM runs the
 * cipher forward in both directions. Implemented with runtime-generated
 * T-tables for throughput (the simulator encrypts real payload bytes).
 */

#ifndef ANIC_CRYPTO_AES_HH
#define ANIC_CRYPTO_AES_HH

#include <cstdint>

#include "util/bytes.hh"

namespace anic::crypto {

/** AES-128 with a fixed key schedule. */
class Aes128
{
  public:
    static constexpr size_t kBlockSize = 16;
    static constexpr size_t kKeySize = 16;
    static constexpr int kRounds = 10;

    Aes128() = default;

    /** Expands @p key (16 bytes) into round keys. */
    explicit Aes128(ByteView key) { setKey(key); }

    void setKey(ByteView key);

    /** Encrypts one 16-byte block, in may alias out. */
    void encryptBlock(const uint8_t in[16], uint8_t out[16]) const;

    /**
     * Writes the expanded encryption round keys in wire order (the
     * byte sequence XORed into the state), the layout the hardware
     * kernels consume. Identical to what the AES-NI key schedule
     * produces for the same key.
     */
    void exportRoundKeys(uint8_t rk[kRounds + 1][16]) const;

  private:
    /** Encryption round keys. */
    uint32_t ek_[4 * (kRounds + 1)];
};

} // namespace anic::crypto

#endif // ANIC_CRYPTO_AES_HH
