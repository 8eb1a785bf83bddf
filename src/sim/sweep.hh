/**
 * @file
 * Parallel sweep runner for the benchmark harnesses.
 *
 * Every figure/table binary replays the same pattern: tens of fully
 * independent (protocol x workload x config) simulations whose results
 * are only combined at formatting time. sweep::run executes such a
 * job list on a FIFO thread pool — jobs start in list order, so a
 * list that puts its longest jobs first starts them first — and
 * returns the outcomes in submission order.
 *
 * Determinism guarantee: results are bit-identical to a serial run at
 * any thread count. Each job constructs its own sim::System (and with
 * it its own secure memory, allocator and caches),
 * all simulation randomness is seeded per job from its WorkloadConfig,
 * and no simulator state is shared between jobs — threads only decide
 * *when* a job runs, never what it computes. Wall-clock fields are the
 * only nondeterministic outputs.
 *
 * Thread count: AMNT_SWEEP_THREADS when set (strictly parsed),
 * otherwise one thread per hardware thread.
 *
 * A job's System may apply its secure-memory ops on a helper thread
 * (sim/memory_pipe.hh) when the host has a spare core; that too
 * decides only when the ops are applied, so a job's statsJson and
 * RunResult are byte-identical with or without it. A job that ends
 * with integrity violations is fatal.
 */

#ifndef AMNT_SIM_SWEEP_HH
#define AMNT_SIM_SWEEP_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/system.hh"

namespace amnt::sweep
{

/** One independent simulation: a system, its processes, a run length. */
struct Job
{
    sim::SystemConfig config;
    std::vector<sim::WorkloadConfig> processes;
    std::uint64_t instructions = 0;
    std::uint64_t warmup = 0;
};

/** Result of one job plus host-side measurement. */
struct Outcome
{
    sim::RunResult result;
    double wallSeconds = 0.0; ///< host time; nondeterministic

    /** Copy of the frame histogram when the job recorded one. */
    std::unordered_map<PageId, std::uint64_t> accessHistogram;

    /**
     * Per-job registry snapshot (System::statsJson): the system's
     * full federated stats as sorted JSON, captured after the run.
     * Deterministic at any thread count — everything it contains is
     * simulated state (host timings stay out unless AMNT_OBS_TIMING
     * opts in, and those live under the `host.` prefix).
     */
    std::string statsJson;
};

/** Worker count: AMNT_SWEEP_THREADS, else hardware threads. */
unsigned threadCount();

/**
 * Run every job and return outcomes in submission order.
 * @param threads Worker count; 0 = threadCount().
 */
std::vector<Outcome> run(const std::vector<Job> &jobs,
                         unsigned threads = 0);

/**
 * Run @p fn(0..n-1) on the pool; same determinism contract as run()
 * provided each index works on its own state. Used by harness phases
 * that need more than a RunResult (e.g. functional recovery).
 *
 * The workers count against the process-wide HostBudget
 * (common/thread_pool.hh); an inline run counts its calling thread.
 * A worker's slot returns to the budget once no task is left for it.
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &fn,
                 unsigned threads = 0);

} // namespace amnt::sweep

#endif // AMNT_SIM_SWEEP_HH
