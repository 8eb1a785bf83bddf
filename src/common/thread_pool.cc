#include "common/thread_pool.hh"

#include <algorithm>
#include <utility>

namespace amnt
{

unsigned
ThreadPool::hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = hardwareThreads();
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    workReady_.notify_all();
    // Workers leave only once the queue is empty, so every pending
    // task still runs.
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push_back(std::move(task));
        ++pending_;
    }
    workReady_.notify_one();
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        workReady_.wait(lock,
                        [this] { return stop_ || !tasks_.empty(); });
        if (tasks_.empty())
            return; // stopped and drained
        {
            std::function<void()> task = std::move(tasks_.front());
            tasks_.pop_front();
            lock.unlock();
            task();
        } // the task's captures die before wait() can return
        lock.lock();
        if (--pending_ == 0)
            allDone_.notify_all();
    }
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock, [this] { return pending_ == 0; });
}

namespace
{

/** Slots in use across the process (HostBudget::inUse). */
std::atomic<unsigned> budgetInUse{0};

/** The calling thread is a counted sweep worker. */
thread_local bool budgetCounted = false;

} // namespace

HostBudget::Worker::Worker() : outer_(budgetCounted)
{
    budgetCounted = true;
}

HostBudget::Worker::~Worker()
{
    budgetCounted = outer_;
}

HostBudget::Workers::Workers(unsigned n) : held_(n)
{
    budgetInUse.fetch_add(n);
}

HostBudget::Workers::~Workers()
{
    budgetInUse.fetch_sub(held_.load());
}

void
HostBudget::Workers::release()
{
    held_.fetch_sub(1);
    budgetInUse.fetch_sub(1);
}

unsigned
HostBudget::grantHelper()
{
    const unsigned need = budgetCounted ? 1 : 2;
    static const unsigned cap = ThreadPool::hardwareThreads();
    unsigned used = budgetInUse.load();
    do {
        if (used + need > cap)
            return 0;
    } while (!budgetInUse.compare_exchange_weak(used, used + need));
    return need;
}

void
HostBudget::releaseHelper(unsigned slots)
{
    budgetInUse.fetch_sub(slots);
}

unsigned
HostBudget::inUse()
{
    return budgetInUse.load();
}

} // namespace amnt
