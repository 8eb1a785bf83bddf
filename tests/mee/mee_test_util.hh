/**
 * @file
 * Shared helpers for secure-memory engine tests: a small functional
 * configuration (4 MB protected data, 8 kB metadata cache so
 * evictions actually happen) and deterministic block patterns.
 */

#ifndef AMNT_TESTS_MEE_TEST_UTIL_HH
#define AMNT_TESTS_MEE_TEST_UTIL_HH

#include <cstring>
#include <memory>

#include "common/rng.hh"
#include "core/amnt.hh"
#include "mee/engine.hh"
#include "mem/memory_map.hh"
#include "mem/nvm_device.hh"

namespace amnt::test
{

inline mee::MeeConfig
smallConfig(crypto::CryptoPlane plane = crypto::CryptoPlane::Fast)
{
    mee::MeeConfig cfg;
    cfg.dataBytes = 4ull << 20; // 4 MB -> 1024 counters, 4 node levels
    cfg.metaCache = {"mcache", 8 * 1024, 8, 2};
    cfg.plane = plane;
    cfg.trackContents = true;
    cfg.keySeed = 0x5eed;
    return cfg;
}

/** Owns the device + engine pair tests need. */
struct Rig
{
    explicit Rig(mee::Protocol p,
                 mee::MeeConfig cfg = smallConfig())
        : config(cfg),
          nvm(std::make_unique<mem::NvmDevice>(
              mem::MemoryMap(cfg.dataBytes).deviceBytes())),
          engine(core::makeEngine(p, cfg, *nvm))
    {
        // Every engine test also checks the fetch fast path against
        // the full MAC comparison it skips.
        engine->setFetchCrossCheck(true);
    }

    mee::MeeConfig config;
    std::unique_ptr<mem::NvmDevice> nvm;
    std::unique_ptr<mee::MemoryEngine> engine;
};

/** Deterministic 64-byte pattern derived from a seed. */
inline void
fillBlock(std::uint8_t *out, std::uint64_t seed)
{
    Rng rng(seed);
    for (std::size_t i = 0; i < kBlockSize; ++i)
        out[i] = static_cast<std::uint8_t>(rng.next());
}

/** Write pattern(seed) to @p addr. */
inline void
writePattern(mee::MemoryEngine &e, Addr addr, std::uint64_t seed)
{
    std::uint8_t buf[kBlockSize];
    fillBlock(buf, seed);
    e.write(addr, buf);
}

/** Read @p addr and check it equals pattern(seed). */
inline bool
checkPattern(mee::MemoryEngine &e, Addr addr, std::uint64_t seed)
{
    std::uint8_t got[kBlockSize];
    std::uint8_t want[kBlockSize];
    e.read(addr, got);
    fillBlock(want, seed);
    return std::memcmp(got, want, kBlockSize) == 0;
}

} // namespace amnt::test

#endif // AMNT_TESTS_MEE_TEST_UTIL_HH
