/**
 * Quickstart: the secure-SCM public API in one file.
 *
 * Builds a functional (real AES-128-CTR + HMAC-SHA-256) AMNT-protected
 * memory, writes data through it, survives a power failure, recovers,
 * and proves the data back out — then shows what a physical attacker
 * triggers.
 *
 *   $ ./quickstart
 */

#include <cstdio>
#include <cstring>

#include "core/amnt.hh"
#include "core/recovery_planner.hh"

using namespace amnt;

int
main()
{
    // 1. Configure a 64 MB protected SCM with the paper's defaults:
    //    split counters, 8-ary BMT, 64 kB metadata cache, subtree
    //    root at level 3, functional crypto plane.
    mee::MeeConfig config;
    config.dataBytes = 64ull << 20;
    config.plane = crypto::CryptoPlane::Functional;
    config.trackContents = true;
    config.keySeed = 0x1234;

    core::FlatMemory memory(mee::Protocol::Amnt, config);

    // 2. Write a block. write() is a data write arriving at the
    //    memory controller: it encrypts, updates the counter + HMAC +
    //    tree, and persists per the AMNT hybrid policy.
    std::uint8_t message[kBlockSize] = {};
    std::strcpy(reinterpret_cast<char *>(message),
                "the course of true love never did run smooth");
    const Cycle wlat = memory.write(0x4000, message);
    std::printf("wrote one block (modeled latency %llu cycles)\n",
                static_cast<unsigned long long>(wlat));

    // 3. Read it back: fetch + decrypt + integrity verification.
    std::uint8_t readback[kBlockSize];
    memory.read(0x4000, readback);
    std::printf("read back: \"%s\" (violations: %llu)\n", readback,
                static_cast<unsigned long long>(memory.violations()));

    // 4. Power failure. Volatile state (metadata cache, architectural
    //    tree) is gone; NVM and the NV root registers survive.
    memory.crash();
    std::printf("power failure injected\n");

    // 5. Recovery: AMNT recomputes only the fast subtree's interior
    //    and re-anchors it against the non-volatile subtree register.
    const mee::RecoveryReport report = memory.recover();
    std::printf("recovery: %s (%llu blocks read, %.4f ms modeled)\n",
                report.success ? "success" : "FAILED",
                static_cast<unsigned long long>(report.blocksRead),
                report.estimatedMs);

    memory.read(0x4000, readback);
    std::printf("after recovery: \"%s\" (violations: %llu)\n",
                readback,
                static_cast<unsigned long long>(memory.violations()));

    // 6. A physical attacker flips one persisted data bit...
    memory.device().tamper(0x4000, 0, 0x01);
    memory.read(0x4000, readback);
    std::printf("after tampering, violations: %llu (attack %s)\n",
                static_cast<unsigned long long>(memory.violations()),
                memory.violations() > 0 ? "detected" : "MISSED");

    // 7. The administrator's dial (paper section 6.7): pick the
    //    subtree level for a recovery-time budget.
    core::RecoveryModel model;
    std::printf("\nadmin planner: 2 TB SCM, 100 ms budget -> subtree "
                "level %u (%.2f ms)\n",
                model.levelForBudget(2ull << 40, 100.0, 7),
                model.amntMs(2ull << 40, 3));
    return memory.violations() > 0 ? 0 : 1;
}
