#include "os/page_table.hh"

#include "common/log.hh"

namespace amnt::os
{

Addr
PageTable::translate(Addr vaddr)
{
    const PageId vpage = pageOf(vaddr);
    auto it = map_.find(vpage);
    if (it == map_.end()) {
        const auto frame = allocator_->allocPage();
        if (!frame)
            fatal("out of physical memory at vpage %llu",
                  static_cast<unsigned long long>(vpage));
        it = map_.try_emplace(vpage).first;
        it->second = *frame;
        ++faults_;
    }
    return pageAddr(it->second) + (vaddr & (kPageSize - 1));
}

bool
PageTable::probe(Addr vaddr, Addr &paddr) const
{
    auto it = map_.find(pageOf(vaddr));
    if (it == map_.end())
        return false;
    paddr = pageAddr(it->second) + (vaddr & (kPageSize - 1));
    return true;
}

void
PageTable::unmapPage(PageId vpage)
{
    auto it = map_.find(vpage);
    if (it == map_.end())
        return;
    allocator_->freePage(it->second);
    map_.erase(vpage);
}

void
PageTable::unmapAll()
{
    for (const auto &kv : map_)
        allocator_->freePage(kv.second);
    map_.clear();
}

void
PageTable::forEachMapping(
    const std::function<void(PageId, PageId)> &visitor) const
{
    for (const auto &kv : map_)
        visitor(kv.first, kv.second);
}

} // namespace amnt::os
