/**
 * Tamper audit: plays the threat model's attacks against every
 * persisted structure — data splicing, HMAC corruption, counter
 * replay (rollback), tree-node corruption, and cold (powered-off)
 * counter corruption — and reports whether each is detected and
 * where.
 *
 *   $ ./tamper_audit
 */

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/table.hh"
#include "core/amnt.hh"

using namespace amnt;

namespace
{

struct Attack
{
    std::string name;
    std::string mechanism;
    bool detected;
};

mee::MeeConfig
victimConfig()
{
    mee::MeeConfig config;
    config.dataBytes = 8ull << 20;
    config.plane = crypto::CryptoPlane::Functional;
    config.trackContents = true;
    config.keySeed = 7;
    return config;
}

/** Fresh functional AMNT system with a populated working set. */
struct Victim
{
    Victim()
        : memory(mee::Protocol::Amnt, victimConfig()),
          engine(memory.engine()), nvm(memory.device())
    {
        std::uint8_t block[kBlockSize];
        for (std::uint64_t p = 0; p < 512; ++p) {
            std::memset(block, static_cast<int>(p & 0xff),
                        sizeof(block));
            engine.write(p * kPageSize, block);
        }
        // Push metadata out of the on-chip cache so future fetches
        // come from the (attackable) device.
        for (std::uint64_t p = 512; p < 1500; ++p)
            engine.read(p * kPageSize);
    }

    core::FlatMemory memory;
    mee::MemoryEngine &engine;
    mem::NvmDevice &nvm;
};

} // namespace

int
main()
{
    setQuiet(true); // the audit table replaces per-event warnings
    std::vector<Attack> results;

    {
        Victim v;
        v.nvm.tamper(3 * kPageSize, 21, 0x40);
        v.engine.read(3 * kPageSize);
        results.push_back({"data splice (flip ciphertext bit)",
                           "per-block HMAC mismatch on read",
                           v.engine.violations() > 0});
    }
    {
        Victim v;
        v.nvm.tamper(v.engine.map().hmacAddrOf(3 * kPageSize), 1,
                      0x02);
        v.engine.read(3 * kPageSize);
        results.push_back({"HMAC corruption",
                           "persisted-MAC check on metadata fetch",
                           v.engine.violations() > 0});
    }
    {
        Victim v;
        const Addr caddr = v.engine.map().counterBase();
        mem::Block old_counter;
        v.nvm.peek(caddr, old_counter);
        std::uint8_t block[kBlockSize] = {9};
        for (int i = 0; i < 6; ++i)
            v.engine.write(0, block);
        for (std::uint64_t p = 512; p < 1500; ++p)
            v.engine.read(p * kPageSize); // force write-back + evict
        v.nvm.writeBlock(caddr, old_counter); // rollback!
        for (int i = 0; i < 4 && v.engine.violations() == 0; ++i)
            v.engine.read(0);
        results.push_back({"counter replay (rollback to old value)",
                           "keyed MAC of persisted bytes diverges",
                           v.engine.violations() > 0});
    }
    {
        Victim v;
        const Addr naddr = v.engine.map().nodeAddrOf(
            v.engine.map().geometry().leafNodeOf(0));
        v.nvm.tamper(naddr, 5, 0x80);
        for (int i = 0; i < 4 && v.engine.violations() == 0; ++i)
            v.engine.read(0);
        results.push_back({"BMT node corruption",
                           "tree-node verification on fetch",
                           v.engine.violations() > 0});
    }
    {
        Victim v;
        v.engine.crash();
        v.nvm.tamper(v.engine.map().counterBase() + 9 * kBlockSize,
                      2, 0x10);
        const auto report = v.engine.recover();
        results.push_back({"cold attack (corrupt counter, power off)",
                           "recovery root-register mismatch",
                           !report.success});
    }
    setQuiet(false);

    TextTable table;
    table.header({"attack", "detection mechanism", "result"});
    bool all = true;
    for (const auto &a : results) {
        table.row({a.name, a.mechanism,
                   a.detected ? "DETECTED" : "missed"});
        all = all && a.detected;
    }
    std::printf("Tamper audit against AMNT-protected SCM\n\n%s\n%s\n",
                table.render().c_str(),
                all ? "all attacks detected"
                    : "SOME ATTACKS WERE MISSED");
    return all ? 0 : 1;
}
