#include "sim/workload.hh"

#include <algorithm>

#include "common/log.hh"
#include "sim/traceio/reader.hh"

namespace amnt::sim
{

namespace
{

/**
 * Scatter a popularity rank across [0, n): consecutive ranks land on
 * unrelated slots, so "hot" is a property of popularity, not of a
 * contiguous address range. Multiplication by a prime far larger
 * than any footprint is a bijection on [0, n) whenever the prime
 * does not divide n.
 */
std::uint64_t
scatterRank(std::uint64_t rank, std::uint64_t n)
{
    return (rank * 2654435761ULL) % n;
}

/** Largest power-of-two exponent with 2^k <= n (n >= 1). */
unsigned
floorLog2(std::uint64_t n)
{
    unsigned k = 0;
    while ((2ULL << k) <= n)
        ++k;
    return k;
}

} // namespace

Workload::~Workload() = default;

Workload::Workload(const WorkloadConfig &config)
    : config_(config), rng_(config.seed),
      hotZipf_(std::max<std::uint64_t>(
                   1, static_cast<std::uint64_t>(
                          static_cast<double>(config.footprintPages) *
                          config.hotPagesFraction)),
               config.zipfAlpha),
      hotPages_(std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 static_cast<double>(config.footprintPages) *
                 config.hotPagesFraction)))
{
    if (config.footprintPages == 0)
        panic("workload needs a non-zero footprint");

    if (!config.traceFile.empty()) {
        trace_ = std::make_unique<traceio::TraceReader>(
            config.traceFile);
        if (!trace_->ok())
            fatal("trace replay: %s", trace_->error().c_str());
        prefetchTrace();
        return;
    }

    const std::uint64_t blocks =
        config.footprintPages * kBlocksPerPage;
    switch (config.kind) {
      case WorkloadKind::Zipfian:
        fullZipf_ = std::make_unique<ZipfSampler>(
            config.footprintPages, config.zipfAlpha);
        break;
      case WorkloadKind::KeyValue:
        kvSlots_ = std::max<std::uint64_t>(
            1, blocks / std::max<std::uint64_t>(
                            1, config.kvValueBlocks));
        fullZipf_ =
            std::make_unique<ZipfSampler>(kvSlots_, config.zipfAlpha);
        break;
      case WorkloadKind::PointerChase: {
        // Walk a full-period permutation of the largest power-of-two
        // block set inside the footprint. The k-bit LCG (multiplier
        // = 1 mod 4, odd increment) has period 2^k; the output mixer
        // below scatters the state so successive nodes share no
        // spatial relation, like a scrambled linked list.
        const unsigned k = floorLog2(std::max<std::uint64_t>(
            2, blocks));
        chaseMask_ = (k >= 64) ? ~0ULL : ((1ULL << k) - 1);
        chaseInc_ = (config.seed * 2 + 1) & chaseMask_;
        chaseState_ = config.seed & chaseMask_;
        break;
      }
      case WorkloadKind::Stream:
        // Writes start at the upper half of the footprint.
        streamWritePos_ =
            (config.footprintPages / 2) * kPageSize;
        break;
      default:
        break;
    }
}

Addr
Workload::pickPage(bool is_write)
{
    const double hot_p =
        is_write ? config_.writeHotFraction : config_.readHotFraction;
    if (rng_.chance(hot_p)) {
        // The hot cluster occupies the first pages of the footprint
        // (contiguous virtually, as heaps are).
        return hotZipf_.sample(rng_);
    }
    return rng_.below(config_.footprintPages);
}

MemRef
Workload::nextSynthetic()
{
    MemRef ref;
    ref.type = rng_.chance(config_.writeFraction) ? AccessType::Write
                                                  : AccessType::Read;
    ref.flush = ref.type == AccessType::Write &&
                rng_.chance(config_.flushWriteFraction);
    // Writes continue a spatial run only while its locus is hot:
    // stores cluster on the program's core structures, while loads
    // also walk cold data. Without this, run-following writes leak
    // into cold pages and, amplified by write-back coalescing of the
    // hot stores, would dominate the memory-level write stream.
    const bool may_follow =
        ref.type == AccessType::Read ||
        pageOf(lastVaddr_) < hotPages_;
    if (rng_.chance(config_.streamFraction)) {
        // Streaming component: a block-granular sequential sweep of
        // the whole footprint (grids, buffers).
        streamPos_ = (streamPos_ + kBlockSize) %
                     (config_.footprintPages * kPageSize);
        ref.vaddr = streamPos_;
    } else if (refs_ > 0 && may_follow &&
               rng_.chance(config_.spatialRun)) {
        // Continue the current spatial run block by block.
        lastVaddr_ = (lastVaddr_ + kBlockSize) %
                     (config_.footprintPages * kPageSize);
        ref.vaddr = lastVaddr_;
    } else {
        const PageId page = pickPage(ref.type == AccessType::Write);
        const std::uint64_t block = rng_.below(kBlocksPerPage);
        ref.vaddr = pageAddr(page) + block * kBlockSize;
        lastVaddr_ = ref.vaddr;
    }
    return ref;
}

MemRef
Workload::nextZipfian()
{
    MemRef ref;
    ref.type = rng_.chance(config_.writeFraction) ? AccessType::Write
                                                  : AccessType::Read;
    ref.flush = ref.type == AccessType::Write &&
                rng_.chance(config_.flushWriteFraction);
    const std::uint64_t rank = fullZipf_->sample(rng_);
    const PageId page =
        scatterRank(rank, config_.footprintPages);
    ref.vaddr = pageAddr(page) +
                rng_.below(kBlocksPerPage) * kBlockSize;
    return ref;
}

MemRef
Workload::nextGups()
{
    MemRef ref;
    if (gupsWritePending_) {
        // Second half of the update: write back the block just read.
        gupsWritePending_ = false;
        ref.vaddr = gupsAddr_;
        ref.type = AccessType::Write;
        ref.flush = rng_.chance(config_.flushWriteFraction);
        return ref;
    }
    const PageId page = rng_.below(config_.footprintPages);
    gupsAddr_ =
        pageAddr(page) + rng_.below(kBlocksPerPage) * kBlockSize;
    gupsWritePending_ = true;
    ref.vaddr = gupsAddr_;
    ref.type = AccessType::Read;
    return ref;
}

MemRef
Workload::nextStream()
{
    const std::uint64_t half_pages =
        std::max<std::uint64_t>(1, config_.footprintPages / 2);
    MemRef ref;
    if (rng_.chance(config_.writeFraction)) {
        // Write sweep over the upper half of the footprint.
        const Addr base = half_pages * kPageSize;
        const Addr span =
            (config_.footprintPages - half_pages) * kPageSize;
        ref.type = AccessType::Write;
        ref.flush = rng_.chance(config_.flushWriteFraction);
        ref.vaddr = streamWritePos_;
        streamWritePos_ =
            base + (streamWritePos_ - base + kBlockSize) %
                       std::max<Addr>(kBlockSize, span);
    } else {
        // Read sweep over the lower half.
        ref.type = AccessType::Read;
        ref.vaddr = streamReadPos_;
        streamReadPos_ = (streamReadPos_ + kBlockSize) %
                         (half_pages * kPageSize);
    }
    return ref;
}

MemRef
Workload::nextKeyValue()
{
    if (kvRemaining_ == 0) {
        // Start a new op on a Zipf-popular key, its value scattered
        // somewhere in the footprint as hash-table buckets are.
        const std::uint64_t slot =
            scatterRank(fullZipf_->sample(rng_), kvSlots_);
        kvNextAddr_ = slot * config_.kvValueBlocks * kBlockSize;
        kvIsPut_ = rng_.chance(config_.writeFraction);
        kvRemaining_ = std::max<std::uint64_t>(
            1, config_.kvValueBlocks);
    }
    MemRef ref;
    ref.vaddr = kvNextAddr_;
    ref.type = kvIsPut_ ? AccessType::Write : AccessType::Read;
    ref.flush = kvIsPut_ && rng_.chance(config_.flushWriteFraction);
    kvNextAddr_ += kBlockSize;
    --kvRemaining_;
    return ref;
}

MemRef
Workload::nextPointerChase()
{
    MemRef ref;
    if (rng_.chance(config_.writeFraction)) {
        // Mark the node in place (visited flags, ranks, parents).
        ref.type = AccessType::Write;
        ref.flush = rng_.chance(config_.flushWriteFraction);
    } else {
        // Follow the pointer: advance the permutation walk.
        chaseState_ = (chaseState_ * 0xd1342543de82ef95ULL +
                       (chaseInc_ | 1)) &
                      chaseMask_;
        ref.type = AccessType::Read;
    }
    // Mix the state into the node id (bijective on the masked bits:
    // odd multiplications and a xor-shift), so the walk has no
    // spatial structure.
    std::uint64_t node = chaseState_;
    node = (node * 0x9e3779b97f4a7c15ULL) & chaseMask_;
    node ^= node >> 29;
    node = (node * 0xbf58476d1ce4e5b9ULL) & chaseMask_;
    ref.vaddr = node * kBlockSize;
    return ref;
}

void
Workload::prefetchTrace()
{
    if (pending_ == nullptr)
        pending_ = std::make_unique<traceio::TraceRecord>();
    std::uint64_t wrap_delay = 0;
    if (!trace_->next(*pending_)) {
        if (!trace_->ok())
            fatal("trace replay: %s", trace_->error().c_str());
        // Clean end of trace: wrap around. The recording's silent
        // tail delays the first wrapped reference so a looped replay
        // keeps the live run's instruction positions exactly.
        wrap_delay = trace_->tailGap();
        trace_->rewind();
        if (!trace_->next(*pending_))
            fatal("trace replay: '%s': %s",
                  config_.traceFile.c_str(),
                  trace_->ok() ? "holds no records"
                               : trace_->error().c_str());
    }
    replayCountdown_ =
        std::max<std::uint64_t>(1, pending_->gap) + wrap_delay;
}

MemRef
Workload::nextFromTrace()
{
    const MemRef ref = pending_->ref;
    prefetchTrace();
    return ref;
}

MemRef
Workload::next()
{
    if (trace_ != nullptr) {
        ++refs_;
        return nextFromTrace();
    }

    MemRef ref;
    switch (config_.kind) {
      case WorkloadKind::Zipfian:
        ref = nextZipfian();
        break;
      case WorkloadKind::Gups:
        ref = nextGups();
        break;
      case WorkloadKind::Stream:
        ref = nextStream();
        break;
      case WorkloadKind::KeyValue:
        ref = nextKeyValue();
        break;
      case WorkloadKind::PointerChase:
        ref = nextPointerChase();
        break;
      case WorkloadKind::Synthetic:
      default:
        ref = nextSynthetic();
        break;
    }

    ++refs_;
    if (config_.churnEvery != 0 && refs_ % config_.churnEvery == 0) {
        // Drop a random cold page; it refaults on its next touch.
        ref.churnPage = true;
        ref.churnVictim =
            hotPages_ +
            rng_.below(std::max<std::uint64_t>(
                1, config_.footprintPages - hotPages_));
    }
    return ref;
}

} // namespace amnt::sim
