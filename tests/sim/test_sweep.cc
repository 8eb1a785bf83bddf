/**
 * Sweep-runner tests: the parallel sweep must be bit-identical to a
 * serial run of the same job list at every thread count (each job
 * owns its simulator, so threads can only reorder wall-clock time,
 * never simulated results), outcomes must come back in submission
 * order, and the AMNT_SWEEP_THREADS knob must parse strictly.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/thread_pool.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"

using namespace amnt;

namespace
{

void
expectSameResult(const sim::RunResult &a, const sim::RunResult &b,
                 std::size_t job)
{
    EXPECT_EQ(a.cycles, b.cycles) << "job " << job;
    EXPECT_EQ(a.appInstructions, b.appInstructions) << "job " << job;
    EXPECT_EQ(a.osInstructions, b.osInstructions) << "job " << job;
    EXPECT_EQ(a.dataAccesses, b.dataAccesses) << "job " << job;
    EXPECT_EQ(a.memReads, b.memReads) << "job " << job;
    EXPECT_EQ(a.memWrites, b.memWrites) << "job " << job;
    EXPECT_EQ(a.mcacheHitRate, b.mcacheHitRate) << "job " << job;
    EXPECT_EQ(a.subtreeHitRate, b.subtreeHitRate) << "job " << job;
    EXPECT_EQ(a.subtreeMovements, b.subtreeMovements)
        << "job " << job;
    EXPECT_EQ(a.pageFaults, b.pageFaults) << "job " << job;
}

/** 2 protocols x 2 workloads, small enough for a tier-1 test. */
std::vector<sweep::Job>
matrixJobs()
{
    std::vector<sweep::Job> jobs;
    for (mee::Protocol p :
         {mee::Protocol::Leaf, mee::Protocol::Amnt}) {
        for (const char *name : {"bodytrack", "canneal"}) {
            sim::WorkloadConfig w = sim::parsecPreset(name);
            w.footprintPages = 256;
            sweep::Job job;
            job.config = sim::SystemConfig::singleProgram(p);
            job.processes = {w};
            job.instructions = 20000;
            job.warmup = 5000;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

TEST(Sweep, ParallelMatchesSerialAtEveryThreadCount)
{
    const std::vector<sweep::Job> jobs = matrixJobs();
    const std::vector<sweep::Outcome> serial = sweep::run(jobs, 1);
    ASSERT_EQ(serial.size(), jobs.size());

    for (unsigned threads = 2; threads <= 8; ++threads) {
        const std::vector<sweep::Outcome> parallel =
            sweep::run(jobs, threads);
        ASSERT_EQ(parallel.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            expectSameResult(serial[i].result, parallel[i].result, i);
    }
}

TEST(Sweep, OutcomesComeBackInSubmissionOrder)
{
    // Distinguishable jobs: different instruction counts produce
    // different appInstructions, revealing any reordering.
    std::vector<sweep::Job> jobs;
    for (std::uint64_t n = 1; n <= 6; ++n) {
        sim::WorkloadConfig w = sim::parsecPreset("bodytrack");
        w.footprintPages = 256;
        sweep::Job job;
        job.config =
            sim::SystemConfig::singleProgram(mee::Protocol::Leaf);
        job.processes = {w};
        job.instructions = 1000 * n;
        jobs.push_back(std::move(job));
    }
    const std::vector<sweep::Outcome> outcomes = sweep::run(jobs, 4);
    ASSERT_EQ(outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(outcomes[i].result.appInstructions,
                  1000 * (i + 1));
}

/** One small job per microbenchmark generator. */
std::vector<sweep::Job>
syntheticJobs()
{
    std::vector<sweep::Job> jobs;
    for (const char *name :
         {"zipfian", "gups", "stream", "kvstore", "chase"}) {
        sim::WorkloadConfig w = sim::syntheticPreset(name);
        w.footprintPages = 256;
        sweep::Job job;
        job.config =
            sim::SystemConfig::singleProgram(mee::Protocol::Amnt);
        job.processes = {w};
        job.instructions = 15000;
        job.warmup = 3000;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

TEST(Sweep, MicrobenchmarkGeneratorsAreThreadCountInvariant)
{
    // The determinism contract for the WorkloadKind generators: the
    // full registry dump of every job is byte-identical whether jobs
    // run serially or share the process with three worker threads.
    const std::vector<sweep::Job> jobs = syntheticJobs();
    const std::vector<sweep::Outcome> serial = sweep::run(jobs, 1);
    const std::vector<sweep::Outcome> parallel = sweep::run(jobs, 4);
    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_FALSE(serial[i].statsJson.empty()) << "job " << i;
        EXPECT_EQ(serial[i].statsJson, parallel[i].statsJson)
            << "job " << i;
    }
}

TEST(Sweep, InsertingAJobLeavesOtherRowsUnchanged)
{
    // Reseeding audit: generators draw only from their own seeded
    // rng_, so adding a job to a sweep cannot perturb any other row.
    const std::vector<sweep::Job> before = syntheticJobs();
    const std::vector<sweep::Outcome> base = sweep::run(before, 2);

    std::vector<sweep::Job> with_extra = syntheticJobs();
    sweep::Job extra;
    extra.config =
        sim::SystemConfig::singleProgram(mee::Protocol::Leaf);
    extra.processes = {sim::syntheticPreset("gups")};
    extra.processes[0].footprintPages = 128;
    extra.instructions = 9000;
    with_extra.insert(with_extra.begin() + 2, std::move(extra));
    const std::vector<sweep::Outcome> shifted =
        sweep::run(with_extra, 2);

    ASSERT_EQ(shifted.size(), base.size() + 1);
    for (std::size_t i = 0; i < base.size(); ++i) {
        const std::size_t j = i < 2 ? i : i + 1;
        EXPECT_EQ(base[i].statsJson, shifted[j].statsJson)
            << "job " << i;
    }
}

TEST(Sweep, RecordsHistogramWhenRequested)
{
    std::vector<sweep::Job> jobs = matrixJobs();
    jobs.resize(1);
    jobs[0].config.recordAccessHistogram = true;
    const std::vector<sweep::Outcome> outcomes = sweep::run(jobs, 2);
    EXPECT_FALSE(outcomes[0].accessHistogram.empty());
}

TEST(Sweep, FlatAndShardedJobsEndWithoutViolations)
{
    // A job that ends with integrity violations is fatal in the
    // sweep, so both jobs returning is the check; their registries
    // confirm which memory each one ran.
    std::vector<sweep::Job> jobs = matrixJobs();
    jobs.resize(2);
    jobs[1].config.shards = 2;
    const std::vector<sweep::Outcome> outcomes = sweep::run(jobs, 2);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_NE(outcomes[0].statsJson.find("\"mee.violations\": 0"),
              std::string::npos);
    EXPECT_NE(
        outcomes[1].statsJson.find("\"mee.shard1.violations\": 0"),
        std::string::npos);
}

TEST(Sweep, ParallelForCoversEveryIndexOnce)
{
    std::vector<int> hits(100, 0);
    sweep::parallelFor(
        hits.size(), [&](std::size_t i) { hits[i] += 1; }, 4);
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(Sweep, ThreadCountHonorsEnvironment)
{
    ::setenv("AMNT_SWEEP_THREADS", "3", 1);
    EXPECT_EQ(sweep::threadCount(), 3u);

    // 0 is clamped to 1 worker rather than zero.
    ::setenv("AMNT_SWEEP_THREADS", "0", 1);
    EXPECT_EQ(sweep::threadCount(), 1u);

    // Malformed values fall back to the hardware default.
    ::setenv("AMNT_SWEEP_THREADS", "all", 1);
    EXPECT_EQ(sweep::threadCount(), ThreadPool::hardwareThreads());

    ::unsetenv("AMNT_SWEEP_THREADS");
    EXPECT_EQ(sweep::threadCount(), ThreadPool::hardwareThreads());
}

} // namespace

