/**
 * @file
 * FIFO thread pool for coarse-grained, independent jobs.
 *
 * One mutex-guarded queue feeds every worker: an idle worker takes
 * the oldest task, so tasks start in submission order. A sweep that
 * lists its longest jobs first therefore starts them first, and no
 * short job waits behind a long one while a worker is idle. The pool
 * makes no completion-order promises — callers that need
 * deterministic results index into a pre-sized output array, which is
 * exactly what sweep::run does.
 */

#ifndef AMNT_COMMON_THREAD_POOL_HH
#define AMNT_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace amnt
{

/** Fixed-size pool executing submitted tasks on worker threads. */
class ThreadPool
{
  public:
    /**
     * @param threads Worker count; 0 means one per hardware thread
     *        (at least 1).
     */
    explicit ThreadPool(unsigned threads = 0);

    /** Joins the workers; pending tasks are completed first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Enqueue @p task; it may start immediately on another thread. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished running. */
    void wait();

    /** Hardware concurrency with a floor of 1. */
    static unsigned hardwareThreads();

  private:
    void workerLoop();

    std::mutex mutex_; ///< guards every member below
    std::condition_variable workReady_; ///< a task was queued, or stop
    std::condition_variable allDone_;   ///< pending_ reached zero
    std::deque<std::function<void()>> tasks_; ///< oldest at the front
    std::size_t pending_ = 0; ///< queued + running
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

/**
 * Process-wide budget of busy host threads: sweep workers
 * (sweep::parallelFor) plus the memory-side helper threads that
 * sim::System starts (sim/memory_pipe.hh). Workers are counted
 * unconditionally; a helper is granted only while the total stays at
 * or below ThreadPool::hardwareThreads(). A full-width sweep therefore
 * runs without helpers, and a narrow one lends its idle cores to them.
 */
class HostBudget
{
  public:
    /** Marks the calling thread as a counted sweep worker. */
    class Worker
    {
      public:
        Worker();
        ~Worker();
        Worker(const Worker &) = delete;
        Worker &operator=(const Worker &) = delete;

      private:
        bool outer_;
    };

    /**
     * Counts @p n sweep workers from construction to destruction
     * (release() returns some early) and marks the calling thread as
     * one of them.
     */
    class Workers
    {
      public:
        explicit Workers(unsigned n);
        ~Workers();
        Workers(const Workers &) = delete;
        Workers &operator=(const Workers &) = delete;

        /** Return one worker's slot early (it has no task left). */
        void release();

      private:
        std::atomic<unsigned> held_;
        Worker mark_;
    };

    /**
     * Grant the calling thread one helper thread if the budget allows.
     * Returns the slots taken, to hand back to releaseHelper(): 1 when
     * the caller is a counted sweep worker, 2 for any other thread
     * (counted together with its helper), 0 when the grant would take
     * the total past ThreadPool::hardwareThreads().
     */
    static unsigned grantHelper();

    /** Return the @p slots a grantHelper() call took. */
    static void releaseHelper(unsigned slots);

    /** Slots in use: workers, helpers and the helpers' callers. */
    static unsigned inUse();
};

} // namespace amnt

#endif // AMNT_COMMON_THREAD_POOL_HH
