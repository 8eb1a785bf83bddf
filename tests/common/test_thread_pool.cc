/**
 * ThreadPool tests: every submitted task runs exactly once, tasks
 * start in submission order, wait() really drains, short tasks never
 * wait behind long ones while a worker is idle, and the pool survives
 * reuse across multiple wait() rounds.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"

using namespace amnt;

namespace
{

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);

    constexpr int kTasks = 1000;
    std::vector<std::atomic<int>> ran(kTasks);
    for (int i = 0; i < kTasks; ++i)
        pool.submit([&ran, i] { ran[i].fetch_add(1); });
    pool.wait();
    for (int i = 0; i < kTasks; ++i)
        EXPECT_EQ(ran[i].load(), 1) << "task " << i;
}

TEST(ThreadPool, SingleWorkerStillCompletes)
{
    ThreadPool pool(1);
    std::atomic<int> sum{0};
    for (int i = 1; i <= 100; ++i)
        pool.submit([&sum, i] { sum.fetch_add(i); });
    pool.wait();
    EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPool, OneWorkerStartsTasksInSubmissionOrder)
{
    // Hold the only worker until every task is queued, so the order
    // the tasks run in is the order the pool hands them out.
    ThreadPool pool(1);
    std::latch release(1);
    pool.submit([&release] { release.wait(); });
    std::vector<int> order;
    for (int i = 0; i < 100; ++i)
        pool.submit([&order, i] { order.push_back(i); });
    release.count_down();
    pool.wait();
    ASSERT_EQ(order.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { count.fetch_add(1); });
        pool.wait();
        EXPECT_EQ(count.load(), (round + 1) * 50);
    }
}

TEST(ThreadPool, StealsFromBusyWorkers)
{
    // Every fourth task sleeps. Idle workers take the short tasks
    // queued behind a sleeper instead of waiting for it, or wait()
    // would take ~#tasks * sleep.
    ThreadPool pool(4);
    std::atomic<int> done{0};
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 64; ++i) {
        pool.submit([&done, i] {
            if (i % 4 == 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            done.fetch_add(1);
        });
    }
    pool.wait();
    const double secs =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_EQ(done.load(), 64);
    // 16 sleepers x 20 ms spread over 4 workers ~ 80-320 ms; a
    // serial execution of the sleepers alone would be 320 ms+. Keep a
    // wide margin for slow CI machines: the point is that the 48
    // non-sleeping tasks did not serialize behind sleepers.
    EXPECT_LT(secs, 5.0);
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 200; ++i)
            pool.submit([&count] { count.fetch_add(1); });
        // No wait(): the destructor must finish the queue.
    }
    EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, HardwareThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

} // namespace
