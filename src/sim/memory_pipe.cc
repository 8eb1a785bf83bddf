#include "sim/memory_pipe.hh"

#include <system_error>
#include <utility>

#include "common/log.hh"
#include "common/thread_pool.hh"

namespace amnt::sim
{

namespace
{

/**
 * Wait until @p done(index value) holds: spin briefly, since the other
 * side usually answers within microseconds, then block.
 *
 * The indices keep the default seq_cst order. Release stores would
 * not do: notify_one() skips the wake when its load sees no waiter,
 * and only a seq_cst store keeps that load from passing the store,
 * which would lose the wake-up of a waiter that registered between.
 */
template <typename Done>
std::uint32_t
await(const std::atomic<std::uint32_t> &index, Done done)
{
    constexpr int kSpins = 256;
    for (int i = 0; i < kSpins; ++i) {
        const std::uint32_t v = index.load();
        if (done(v))
            return v;
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
    }
    while (true) {
        const std::uint32_t v = index.load();
        if (done(v))
            return v;
        index.wait(v);
    }
}

} // namespace

MemoryPipe::MemoryPipe(mee::SecureMemory &memory, unsigned cores,
                       std::uint64_t addr_limit)
    : memory_(memory), ring_(new Batch[kSlots]),
      cur_(&ring_[0]), latency_(cores, 0)
{
    if (cores > kCoreMask + 1 || addr_limit > kAddrMask + 1)
        fatal("memory pipe packs at most %llu cores and 2^56 bytes",
              static_cast<unsigned long long>(kCoreMask + 1));
}

MemoryPipe::~MemoryPipe()
{
    if (helper_.joinable())
        stopHelper();
}

bool
MemoryPipe::startHelper()
{
    if (mode_ == Helper::Never)
        return false;
    if (mode_ == Helper::Budget) {
        helperSlots_ = HostBudget::grantHelper();
        if (helperSlots_ == 0)
            return false;
    }
    try {
        helper_ = std::thread([this] { helperLoop(); });
    } catch (const std::system_error &) {
        // No thread to be had: apply inline, as without a grant.
        HostBudget::releaseHelper(helperSlots_);
        helperSlots_ = 0;
        return false;
    }
    return true;
}

void
MemoryPipe::stopHelper()
{
    // The helper applies everything published, then sees the stop bit;
    // join() publishes its latencies and memory state to this thread.
    head_.store(produced_ | kStop);
    head_.notify_one();
    helper_.join();
    HostBudget::releaseHelper(helperSlots_);
    helperSlots_ = 0;
    head_.store(produced_);
}

void
MemoryPipe::seal()
{
    cur_->count = fill_;
    batched_ += fill_;
    fill_ = 0;
}

void
MemoryPipe::publish()
{
    seal();
    if (!helper_.joinable() && !startHelper()) {
        apply(*cur_);
        return;
    }
    produced_ = (produced_ + 1) & kIndexMask;
    head_.store(produced_);
    head_.notify_one();
    // The next batch's slot is free once the helper is fewer than
    // kSlots batches behind.
    await(tail_, [this](std::uint32_t t) {
        return ((produced_ - t) & kIndexMask) < kSlots;
    });
    cur_ = &ring_[produced_ % kSlots];
}

void
MemoryPipe::drain(std::vector<Cycle> &per_core)
{
    if (helper_.joinable()) {
        if (fill_ > 0) {
            seal();
            produced_ = (produced_ + 1) & kIndexMask;
            cur_ = &ring_[produced_ % kSlots]; // free once stopped
        }
        stopHelper();
        if (error_)
            std::rethrow_exception(std::exchange(error_, nullptr));
    } else if (fill_ > 0) {
        seal();
        apply(*cur_);
    }
    for (std::size_t i = 0; i < latency_.size(); ++i) {
        per_core[i] += latency_[i];
        latency_[i] = 0;
    }
}

void
MemoryPipe::apply(const Batch &b)
{
    // Locals, so the loop does not reload members after every virtual
    // call: the producer writes the line they sit on at every push.
    mee::SecureMemory &memory = memory_;
    Cycle *latency = latency_.data();
    const std::size_t n = b.count;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t op = b.ops[i];
        const Addr addr = op & kAddrMask;
        const auto core =
            static_cast<unsigned>((op >> kCoreShift) & kCoreMask);
        latency[core] += (op & kWriteBit) != 0
                             ? memory.write(addr, nullptr, core)
                             : memory.read(addr, nullptr, core);
    }
}

void
MemoryPipe::helperLoop()
{
    std::uint32_t t = tail_.load();
    while (true) {
        // Anything but head_ == t (nothing new, no stop) needs action.
        const std::uint32_t h =
            await(head_, [t](std::uint32_t v) { return v != t; });
        if ((h & kIndexMask) == t)
            return; // stop, and everything published is applied
        for (; t != (h & kIndexMask); t = (t + 1) & kIndexMask) {
            // After a failure the rest is skipped, not applied: drain()
            // rethrows, and the producer must not wait on a dead ring.
            if (!error_) {
                try {
                    apply(ring_[t % kSlots]);
                    ++offloaded_;
                } catch (...) {
                    error_ = std::current_exception();
                }
            }
            tail_.store((t + 1) & kIndexMask);
            tail_.notify_one();
        }
    }
}

} // namespace amnt::sim
