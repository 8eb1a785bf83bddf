/**
 * @file
 * Ordered, batched hand-off of a System's memory traffic to its
 * secure memory, applied on a memory-side helper thread.
 *
 * The memory encryption engine sits behind the LLC: it sees only
 * misses and write-backs, and the latency it returns is only ever
 * added to the issuing core's cycle count. Nothing in the front end
 * reads it back (DESIGN.md §8, "Memory-side thread"), so the front
 * end need not wait for it. System pushes every LLC miss and
 * write-back here as one packed op (raw address, core, write bit)
 * and collects each core's summed latency at its measurement
 * boundaries (drain()). The secure memory sees the same operations in
 * the same order whichever thread applies them, so every simulated
 * result is byte-identical.
 *
 * Ops fill fixed-size batches in a single-producer/single-consumer
 * ring of kSlots batches with two seq_cst indices (see await() for
 * why not acquire/release). The consumer
 * is a helper thread when the process-wide HostBudget
 * (common/thread_pool.hh) grants one, asked at each full batch until
 * it does; otherwise the producer applies each batch itself as it
 * fills. Each side spins briefly on the other's index, then blocks
 * in std::atomic::wait. drain() joins the helper, so a helper exists
 * only while a run has work for it, and a run shorter than one batch
 * never starts one.
 */

#ifndef AMNT_SIM_MEMORY_PIPE_HH
#define AMNT_SIM_MEMORY_PIPE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "common/types.hh"
#include "mee/secure_memory.hh"

namespace amnt::sim
{

/** One producer's ordered op stream into one secure memory. */
class MemoryPipe
{
  public:
    /** Who applies the batches. */
    enum class Helper
    {
        Budget, ///< a helper thread whenever HostBudget grants one
        Always, ///< test-only: a helper thread, budget not consulted
        Never,  ///< test-only: the producer itself, as batches fill
    };

    /** Ops per batch. */
    static constexpr std::size_t kBatchOps = 4096;

    /** Batches in the ring. */
    static constexpr std::uint32_t kSlots = 8;

    /**
     * @param memory The secure memory; only this pipe touches it
     *        between drains.
     * @param cores  Cores issuing ops (at most 128).
     * @param addr_limit Bound on the addresses pushed (at most 2^56).
     */
    MemoryPipe(mee::SecureMemory &memory, unsigned cores,
               std::uint64_t addr_limit);

    /** Joins the helper once it has applied the batches it holds. */
    ~MemoryPipe();

    MemoryPipe(const MemoryPipe &) = delete;
    MemoryPipe &operator=(const MemoryPipe &) = delete;

    /** Queue an LLC miss of @p core at @p addr. */
    void read(Addr addr, unsigned core) { push(pack(addr, core)); }

    /** Queue a write-back of @p core at @p addr. */
    void
    write(Addr addr, unsigned core)
    {
        push(pack(addr, core) | kWriteBit);
    }

    /**
     * Apply every queued op, join the helper, and add each core's
     * latency summed since the last drain into @p per_core (one entry
     * per core). Rethrows the first exception the helper caught.
     */
    void drain(std::vector<Cycle> &per_core);

    /** Test-only: choose who applies batches (between drains only). */
    void setHelper(Helper mode) { mode_ = mode; }

    /** Batches a helper thread applied so far (read after drain()). */
    std::uint64_t offloadedBatches() const { return offloaded_; }

    /** Ops pushed so far. */
    std::uint64_t opsPushed() const { return batched_ + fill_; }

  private:
    static constexpr unsigned kCoreShift = 56;
    static constexpr std::uint64_t kAddrMask = (1ull << kCoreShift) - 1;
    static constexpr std::uint64_t kCoreMask = 0x7f;
    static constexpr std::uint64_t kWriteBit = 1ull << 63;

    /** Ring indices count batches modulo 2^31; bit 31 asks to stop. */
    static constexpr std::uint32_t kStop = 1u << 31;
    static constexpr std::uint32_t kIndexMask = kStop - 1;

    struct alignas(64) Batch
    {
        std::array<std::uint64_t, kBatchOps> ops;
        std::size_t count = 0;
    };

    static std::uint64_t
    pack(Addr addr, unsigned core)
    {
        return addr | static_cast<std::uint64_t>(core) << kCoreShift;
    }

    void
    push(std::uint64_t op)
    {
        cur_->ops[fill_] = op;
        if (++fill_ == kBatchOps)
            publish();
    }

    /** Close the current batch at fill_ ops. */
    void seal();

    /** Hand the full current batch to the consumer. */
    void publish();

    /** Let the helper finish what it was handed, then join it. */
    void stopHelper();

    /** Start a helper if the mode and budget allow; true if running. */
    bool startHelper();

    /** Apply @p b's ops to the memory, in order. */
    void apply(const Batch &b);

    /** The helper thread: apply published batches until stopped. */
    void helperLoop();

    mee::SecureMemory &memory_;
    Helper mode_ = Helper::Budget;
    std::unique_ptr<Batch[]> ring_;

    // Producer side.
    Batch *cur_;               ///< the batch being filled
    std::size_t fill_ = 0;     ///< ops in *cur_
    std::uint32_t produced_ = 0; ///< batches published (mod 2^31)
    std::uint64_t batched_ = 0;  ///< ops in batches handed over
    unsigned helperSlots_ = 0; ///< HostBudget slots the helper holds

    // Consumer side: the helper while one runs, else the producer.
    // Its own line, away from the producer's per-push writes.
    alignas(64) std::vector<Cycle> latency_; ///< per core, since drain
    std::exception_ptr error_;
    std::uint64_t offloaded_ = 0;

    alignas(64) std::atomic<std::uint32_t> head_{0}; ///< published
    alignas(64) std::atomic<std::uint32_t> tail_{0}; ///< applied

    std::thread helper_; ///< last: it uses every member above
};

} // namespace amnt::sim

#endif // AMNT_SIM_MEMORY_PIPE_HH
