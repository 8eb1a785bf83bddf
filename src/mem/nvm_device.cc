#include "mem/nvm_device.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/log.hh"
#include "obs/registry.hh"

namespace amnt::mem
{

NvmDevice::NvmDevice(std::uint64_t capacity, const NvmTiming &timing)
    : capacity_(alignUp(capacity, kBlockSize)), timing_(timing)
{
    if (capacity == 0)
        panic("NvmDevice requires non-zero capacity");
}

bool
NvmDevice::tamper(Addr addr, std::size_t offset, std::uint8_t mask)
{
    checkAddr(addr);
    if (offset >= kBlockSize)
        panic("tamper offset out of range");
    if (mask == 0)
        panic("tamper with a zero mask modifies nothing");
    if (deferring_ != nullptr)
        foreignChange();
    // try_emplace value-initializes fresh blocks to all-zero: the
    // attack registers a never-written block in the store, so it is
    // visible to recovery scans like any engine-persisted block.
    auto [it, fresh] = store_.try_emplace(blockOf(addr));
    it->second[offset] ^= mask;
    ++mutations_;
    return !fresh;
}

void
NvmDevice::forEachBlockIn(
    Addr lo, Addr hi,
    const std::function<void(Addr, const Block &)> &visitor) const
{
    for (const auto &kv : store_) {
        const Addr addr = blockAddr(kv.first);
        if (addr >= lo && addr < hi)
            visitor(addr, kv.second);
    }
}

void
NvmDevice::crash()
{
    // Contents persist across a crash; nothing to discard here.
}

bool
NvmDevice::attachDeferringWriter(DeferringWriter &writer)
{
    if (deferring_ != nullptr)
        return false;
    deferring_ = &writer;
    return true;
}

void
NvmDevice::detachDeferringWriter(const DeferringWriter &writer)
{
    if (deferring_ == &writer)
        deferring_ = nullptr;
}

void
NvmDevice::foreignChange()
{
    DeferringWriter *writer = deferring_;
    deferring_ = nullptr;
    writer->beforeForeignChange();
}

std::vector<Addr>
NvmDevice::journalRollback()
{
    if (deferring_ != nullptr && !journalEntries_.empty())
        foreignChange();
    std::vector<Addr> affected;
    affected.reserve(journalEntries_.size());
    for (const auto &kv : journalEntries_) {
        const BlockId blk = kv.first;
        const JournalEntry &e = kv.second;
        if (e.wasPresent)
            store_.try_emplace(blk).first->second = e.preimage;
        else
            store_.erase(blk);
        ++mutations_;
        affected.push_back(blockAddr(blk));
    }
    journalEntries_.clear();
    ++journalRollbacks_;
    std::sort(affected.begin(), affected.end());
    return affected;
}

void
NvmDevice::registerStats(obs::StatRegistry &reg,
                         const std::string &prefix) const
{
    reg.addScalar(prefix + ".reads", [this] { return reads_; });
    reg.addScalar(prefix + ".writes", [this] { return writes_; });
    reg.addScalar(prefix + ".blocks_touched",
                  [this] { return store_.size(); });
}

} // namespace amnt::mem
