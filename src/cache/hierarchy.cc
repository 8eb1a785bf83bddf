#include "cache/hierarchy.hh"

#include "common/log.hh"
#include "obs/registry.hh"

namespace amnt::cache
{

CacheHierarchy::CacheHierarchy(std::vector<Cache *> path,
                               MemReadFn mem_read, MemWriteFn mem_write)
    : path_(std::move(path)), memRead_(std::move(mem_read)),
      memWrite_(std::move(mem_write)), fills_(path_.size())
{
    if (path_.empty())
        panic("CacheHierarchy requires at least one level");
}

Cycle
CacheHierarchy::installAt(std::size_t level, Addr addr, bool dirty)
{
    if (level >= path_.size()) {
        // Dirty block leaves the hierarchy: a data write arrives at
        // the secure memory controller and its metadata-persistence
        // cost lands on the evicting access. Clean blocks vanish.
        if (dirty) {
            ++memWrites_;
            return memWrite_(addr);
        }
        return 0;
    }
    Cache *c = path_[level];
    // A resident block absorbs the victim; only a dirty one touches it.
    if (dirty ? c->touch(addr, true) : c->contains(addr))
        return 0;
    const AccessResult res = c->insert(addr, dirty);
    if (res.evictedValid)
        return installAt(level + 1, res.evictedAddr, res.evictedDirty);
    return 0;
}

Cycle
CacheHierarchy::access(Addr addr, AccessType type)
{
    const bool write = type == AccessType::Write;
    Cycle latency = 0;

    // Each level that misses is filled as it is probed; its victim
    // waits in fills_ until the levels below have been handled. No
    // level's set changes between its probe and its fill in the
    // access-then-insert order either, since victims only move down.
    std::size_t hit_level = path_.size();
    for (std::size_t i = 0; i < path_.size(); ++i) {
        latency += path_[i]->hitLatency();
        fills_[i] = path_[i]->lookupOrFill(addr, write && i == 0);
        if (fills_[i].hit) {
            hit_level = i;
            break;
        }
    }

    if (hit_level == path_.size()) {
        // Miss everywhere: fetch from the secure memory controller.
        ++memReads_;
        latency += memRead_(addr);
    }
    for (std::size_t j = hit_level; j-- > 0;) {
        if (fills_[j].evictedValid)
            latency += installAt(j + 1, fills_[j].evictedAddr,
                                 fills_[j].evictedDirty);
    }
    return latency;
}

void
CacheHierarchy::invalidateAll()
{
    for (Cache *c : path_)
        c->invalidateAll();
}

void
CacheHierarchy::registerStats(obs::StatRegistry &reg,
                              const std::string &prefix) const
{
    reg.addScalar(prefix + ".mem_reads", [this] { return memReads_; });
    reg.addScalar(prefix + ".mem_writes",
                  [this] { return memWrites_; });
}

} // namespace amnt::cache
