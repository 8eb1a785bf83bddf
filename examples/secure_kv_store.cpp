/**
 * A crash-consistent in-memory key-value store on secure SCM — the
 * class of application the paper's introduction motivates.
 *
 * The store is a fixed-capacity open-addressing hash table whose
 * buckets are 64 B blocks living in AMNT-protected non-volatile
 * memory. Every put() persists through the secure-memory engine
 * (encrypt + HMAC + tree update under the hybrid persistence policy),
 * so a power failure at ANY point loses nothing that was put: after
 * engine recovery the table is intact and every lookup verifies.
 *
 *   $ ./secure_kv_store
 */

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "common/rng.hh"
#include "core/amnt.hh"

using namespace amnt;

namespace
{

/**
 * Bucket layout (64 B): 2 B key length, 2 B value length,
 * then key bytes then value bytes (truncated to fit).
 */
class SecureKvStore
{
  public:
    SecureKvStore(mee::MemoryEngine &engine, std::uint64_t buckets)
        : engine_(&engine), buckets_(buckets)
    {
    }

    bool
    put(const std::string &key, const std::string &value)
    {
        if (key.size() + value.size() + 4 > kBlockSize)
            return false;
        // Linear probing over bucket blocks.
        for (std::uint64_t probe = 0; probe < buckets_; ++probe) {
            const Addr addr = bucketAddr(slotOf(key, probe));
            std::uint8_t block[kBlockSize];
            engine_->read(addr, block);
            if (!occupied(block) || keyOf(block) == key) {
                encode(block, key, value);
                engine_->write(addr, block);
                return true;
            }
        }
        return false; // table full
    }

    bool
    get(const std::string &key, std::string &value_out)
    {
        for (std::uint64_t probe = 0; probe < buckets_; ++probe) {
            const Addr addr = bucketAddr(slotOf(key, probe));
            std::uint8_t block[kBlockSize];
            engine_->read(addr, block);
            if (!occupied(block))
                return false;
            if (keyOf(block) == key) {
                const unsigned klen = block[0] | (block[1] << 8);
                const unsigned vlen = block[2] | (block[3] << 8);
                value_out.assign(
                    reinterpret_cast<const char *>(block + 4 + klen),
                    vlen);
                return true;
            }
        }
        return false;
    }

  private:
    static bool
    occupied(const std::uint8_t *block)
    {
        return (block[0] | block[1]) != 0;
    }

    static std::string
    keyOf(const std::uint8_t *block)
    {
        const unsigned klen = block[0] | (block[1] << 8);
        return std::string(reinterpret_cast<const char *>(block + 4),
                           klen);
    }

    static void
    encode(std::uint8_t *block, const std::string &key,
           const std::string &value)
    {
        std::memset(block, 0, kBlockSize);
        block[0] = static_cast<std::uint8_t>(key.size() & 0xff);
        block[1] = static_cast<std::uint8_t>(key.size() >> 8);
        block[2] = static_cast<std::uint8_t>(value.size() & 0xff);
        block[3] = static_cast<std::uint8_t>(value.size() >> 8);
        std::memcpy(block + 4, key.data(), key.size());
        std::memcpy(block + 4 + key.size(), value.data(),
                    value.size());
    }

    std::uint64_t
    slotOf(const std::string &key, std::uint64_t probe) const
    {
        std::uint64_t h = 1469598103934665603ull;
        for (char c : key)
            h = (h ^ static_cast<unsigned char>(c)) *
                1099511628211ull;
        return (h + probe) % buckets_;
    }

    Addr
    bucketAddr(std::uint64_t slot) const
    {
        return slot * kBlockSize;
    }

    mee::MemoryEngine *engine_;
    std::uint64_t buckets_;
};

} // namespace

int
main()
{
    mee::MeeConfig config;
    config.dataBytes = 16ull << 20;
    config.plane = crypto::CryptoPlane::Functional;
    config.trackContents = true;
    config.keySeed = 0xcafe;

    core::FlatMemory memory(mee::Protocol::Amnt, config);
    SecureKvStore store(memory.engine(), 4096);

    // Load a workload of keys; remember what we committed.
    std::map<std::string, std::string> truth;
    Rng rng(2026);
    for (int i = 0; i < 1500; ++i) {
        const std::string key = "user:" + std::to_string(rng.below(600));
        const std::string value =
            "balance=" + std::to_string(rng.below(100000));
        if (store.put(key, value))
            truth[key] = value;
    }
    std::printf("committed %zu keys through the secure engine\n",
                truth.size());

    // Power failure mid-operation, then recovery.
    memory.crash();
    const mee::RecoveryReport report = memory.recover();
    std::printf("crash + recovery: %s (%.4f ms modeled, %llu blocks "
                "read)\n",
                report.success ? "success" : "FAILED",
                report.estimatedMs,
                static_cast<unsigned long long>(report.blocksRead));
    if (!report.success)
        return 1;

    // Every committed pair must still be there and verify.
    std::size_t ok = 0;
    for (const auto &kv : truth) {
        std::string value;
        if (store.get(kv.first, value) && value == kv.second)
            ++ok;
    }
    std::printf("verified %zu/%zu keys after recovery (violations: "
                "%llu)\n",
                ok, truth.size(),
                static_cast<unsigned long long>(memory.violations()));

    // An attacker corrupts one occupied bucket on the DIMM while we
    // are live; the next lookup touching it must scream.
    Addr victim = 0;
    for (std::uint64_t slot = 0; slot < 4096; ++slot) {
        std::uint8_t block[kBlockSize];
        memory.read(slot * kBlockSize, block);
        if ((block[0] | block[1]) != 0) {
            victim = slot * kBlockSize;
            break;
        }
    }
    memory.device().tamper(victim, 8, 0xff);
    std::uint8_t block[kBlockSize];
    memory.read(victim, block);
    std::printf("tamper scan: violations now %llu (attack %s)\n",
                static_cast<unsigned long long>(memory.violations()),
                memory.violations() > 0 ? "detected" : "MISSED");

    return ok == truth.size() && memory.violations() > 0 ? 0 : 1;
}
