#include "sim/sweep.hh"

#include <atomic>
#include <chrono>

#include "common/env.hh"
#include "common/log.hh"
#include "common/thread_pool.hh"

namespace amnt::sweep
{

namespace
{

Outcome
runJob(const Job &job)
{
    const auto start = std::chrono::steady_clock::now();

    Outcome out;
    sim::System sys(job.config);
    for (const auto &w : job.processes)
        sys.addProcess(w);
    out.result = sys.run(job.instructions, job.warmup);
    if (const std::uint64_t v = sys.engine().violations(); v != 0)
        fatal("sweep job under %s ended with %llu integrity "
              "violations",
              mee::protocolName(job.config.protocol),
              static_cast<unsigned long long>(v));
    if (job.config.recordAccessHistogram)
        out.accessHistogram = sys.accessHistogram();
    out.statsJson = sys.statsJson();

    out.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return out;
}

} // namespace

unsigned
threadCount()
{
    const std::uint64_t n =
        envU64("AMNT_SWEEP_THREADS", ThreadPool::hardwareThreads());
    return n == 0 ? 1 : static_cast<unsigned>(n);
}

void
parallelFor(std::size_t n,
            const std::function<void(std::size_t)> &fn,
            unsigned threads)
{
    if (threads == 0)
        threads = threadCount();
    if (threads <= 1 || n <= 1) {
        // An inline sweep counts its calling thread as its one worker.
        HostBudget::Workers workers(1);
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    if (static_cast<std::size_t>(threads) > n)
        threads = static_cast<unsigned>(n);
    // A worker's slot goes back to the budget once no task is left
    // for it, so the sweep's tail lends idle cores to memory helpers.
    HostBudget::Workers workers(threads);
    std::atomic<std::size_t> left{n};
    ThreadPool pool(threads);
    for (std::size_t i = 0; i < n; ++i) {
        pool.submit([&, i] {
            {
                HostBudget::Worker self;
                fn(i);
            }
            if (left.fetch_sub(1) <= threads)
                workers.release();
        });
    }
    pool.wait();
}

std::vector<Outcome>
run(const std::vector<Job> &jobs, unsigned threads)
{
    std::vector<Outcome> outcomes(jobs.size());
    parallelFor(
        jobs.size(),
        [&](std::size_t i) { outcomes[i] = runJob(jobs[i]); },
        threads);
    return outcomes;
}

} // namespace amnt::sweep
