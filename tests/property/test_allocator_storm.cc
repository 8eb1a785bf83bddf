/**
 * Property test: randomized allocation/free storms preserve buddy
 * allocator invariants — no frame handed out twice, frame counts
 * conserved, coalescing sound — with and without AMNT++ biasing and
 * under concurrent restructuring.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <vector>

#include "os/amntpp_allocator.hh"

namespace amnt::os
{
namespace
{

struct StormParams
{
    bool amntpp;
    std::uint64_t seed;
};

/**
 * Print the case for gtest (and the ctest names gtest_discover_tests
 * derives): the default byte dump includes the struct's uninitialised
 * padding, so names would change from run to run.
 */
void
PrintTo(const StormParams &p, std::ostream *os)
{
    *os << (p.amntpp ? "amntpp" : "buddy") << " seed " << p.seed;
}

class AllocatorStorm : public ::testing::TestWithParam<StormParams>
{
};

TEST_P(AllocatorStorm, InvariantsHold)
{
    const StormParams p = GetParam();
    constexpr std::uint64_t kFrames = 4096;
    constexpr std::uint64_t kRegion = 512;

    std::unique_ptr<BuddyAllocator> alloc;
    if (p.amntpp) {
        AmntPpConfig cfg;
        cfg.restructureEvery = 64;
        alloc = std::make_unique<AmntPpAllocator>(kFrames, kRegion, 10,
                                                  cfg);
    } else {
        alloc = std::make_unique<BuddyAllocator>(kFrames);
    }

    Rng rng(p.seed);
    if (rng.chance(0.5))
        alloc->ageSystem(rng, 0.5 + rng.uniform() * 0.4);

    std::set<PageId> held;
    const std::uint64_t base_free = alloc->freeFrames();
    for (int i = 0; i < 30000; ++i) {
        const double roll = rng.uniform();
        if (roll < 0.5 || held.empty()) {
            if (auto f = alloc->allocPage()) {
                ASSERT_LT(*f, kFrames);
                ASSERT_TRUE(held.insert(*f).second)
                    << "frame handed out twice: " << *f;
            }
        } else {
            auto it = held.begin();
            std::advance(it, static_cast<long>(
                                 rng.below(held.size()) % 64));
            alloc->freePage(*it);
            held.erase(it);
        }
        ASSERT_EQ(alloc->freeFrames() + held.size(), base_free);
    }

    // Drain: everything still free is allocatable exactly once.
    std::set<PageId> rest;
    while (auto f = alloc->allocPage()) {
        ASSERT_TRUE(rest.insert(*f).second);
        ASSERT_EQ(held.count(*f), 0ull)
            << "allocator reissued a held frame";
    }
    EXPECT_EQ(rest.size(), base_free - held.size());
}

std::vector<StormParams>
storms()
{
    std::vector<StormParams> out;
    for (bool pp : {false, true})
        for (std::uint64_t seed = 1; seed <= 4; ++seed)
            out.push_back({pp, seed});
    return out;
}

INSTANTIATE_TEST_SUITE_P(Storms, AllocatorStorm,
                         ::testing::ValuesIn(storms()),
                         [](const auto &info) {
                             return std::string(info.param.amntpp
                                                    ? "amntpp"
                                                    : "buddy") +
                                    "_seed" +
                                    std::to_string(info.param.seed);
                         });

} // namespace
} // namespace amnt::os
