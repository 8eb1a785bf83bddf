#include "core/amnt.hh"

#include <vector>

#include "common/log.hh"
#include "fault/fault.hh"

namespace amnt::core
{

void
AmntStrategy::onAttach()
{
    if (config().amntSubtreeLevel < 2 ||
        config().amntSubtreeLevel > map().geometry().nodeLevels())
        fatal("AMNT subtree level %u outside [2, %u]",
              config().amntSubtreeLevel,
              map().geometry().nodeLevels());
    if (config().amntInterval == 0)
        fatal("AMNT interval must be non-zero");
    subtreeHits_ = &stats().counter("subtree_hits");
    subtreeMisses_ = &stats().counter("subtree_misses");
}

Cycle
AmntStrategy::persistInside(const mee::WriteContext &ctx)
{
    // Leaf persistence: counter + HMAC persist with the data write in
    // one parallel burst; tree nodes stay dirty in the metadata
    // cache. The subtree-root register (on-chip, non-volatile) is
    // refreshed so recovery can re-anchor the recomputed subtree.
    ++*subtreeHits_;
    const Addr wt[2] = {map().counterBase() +
                            ctx.counterIdx * kBlockSize,
                        map().hmacAddrOf(ctx.dataAddr)};
    writeThroughMany(wt, 2);
    refreshSubtreeRegister();
    return persistCost(1);
}

Cycle
AmntStrategy::persistOutside(const mee::WriteContext &ctx)
{
    // Strict persistence: read-modify-write the ancestral path and
    // write everything through, ordered.
    ++*subtreeMisses_;
    unsigned misses = 0;
    Cycle hook = 0;
    pathOf(ctx.counterIdx, pathScratch());
    const auto &path = pathScratch();
    for (const auto &ref : path)
        hook += ensureResident(map().nodeAddrOf(ref), misses);
    Cycle lat = misses > 0 ? config().nvmReadCycles : 0;

    // Counter and HMAC persist atomically with the data write; the
    // ancestral path follows in postCommit (recomputable nodes, one
    // crash point each — see StrictStrategy).
    const Addr wt[2] = {map().counterBase() +
                            ctx.counterIdx * kBlockSize,
                        map().hmacAddrOf(ctx.dataAddr)};
    writeThroughMany(wt, 2);

    lat += persistCost(3 + static_cast<unsigned>(path.size()));
    return lat + hook;
}

Cycle
AmntStrategy::persist(const mee::WriteContext &ctx)
{
    const std::uint64_t region = map().geometry().regionOf(
        ctx.counterIdx, config().amntSubtreeLevel);

    // The subtree register initializes on first use: before any
    // write exists there is nothing to flush, so the very first
    // written region is adopted as the fast subtree for free.
    if (!bootstrapped_) {
        bootstrapped_ = true;
        region_ = region;
        refreshSubtreeRegister();
        history_.reset(region_);
    }

    // Hot-region tracking is off the authentication critical path.
    history_.record(region);

    return region == region_ ? persistInside(ctx)
                             : persistOutside(ctx);
}

Cycle
AmntStrategy::postCommit(const mee::WriteContext &ctx)
{
    // Outside-subtree writes persist their ancestral path here, after
    // the commit closed. region_ is still the value persist()
    // dispatched on: movement only happens below, at the interval
    // boundary.
    if (map().geometry().regionOf(ctx.counterIdx,
                                  config().amntSubtreeLevel) !=
        region_) {
        pathOf(ctx.counterIdx, pathScratch());
        Addr wt[bmt::Geometry::kMaxPathNodes];
        std::size_t nwt = 0;
        for (const auto &ref : pathScratch())
            wt[nwt++] = map().nodeAddrOf(ref);
        writeThroughMany(wt, nwt);
    }

    if (++writesThisInterval_ >= config().amntInterval) {
        writesThisInterval_ = 0;
        considerMovement();
        history_.reset(region_);
    }
    return 0; // charged in persistOutside's persistCost
}

void
AmntStrategy::propagateParent(Addr parent_addr)
{
    const bmt::NodeRef ref = map().nodeOfAddr(parent_addr);
    if (ref.level >= config().amntSubtreeLevel &&
        bmt::Geometry::inSubtree(ref, subtreeRoot())) {
        markDirty(parent_addr);
    } else {
        writeThrough(parent_addr);
    }
}

void
AmntStrategy::considerMovement()
{
    const std::uint64_t head = history_.head();
    if (head != region_)
        moveSubtreeTo(head);
}

void
AmntStrategy::moveSubtreeTo(std::uint64_t new_region)
{
    stats().inc("subtree_movements");
    trace().begin(obs::EventClass::SubtreeMove, new_region);

    // All inner nodes of the outgoing subtree must persist before the
    // incoming one may run lazily. Only in-subtree nodes (and the
    // propagation chain above the old root) can be dirty: everything
    // else was written through. A dirty-bit scan of the metadata
    // cache finds them (the 128-bit dirty-path bitmap in hardware).
    std::vector<Addr> dirty_nodes;
    mcache().forEachLine([&](Addr addr, bool dirty) {
        if (dirty && map().classify(addr) == mem::Region::Tree)
            dirty_nodes.push_back(addr);
    });
    writeThroughMany(dirty_nodes.data(), dirty_nodes.size());
    for (std::size_t i = 0; i < dirty_nodes.size(); ++i)
        stats().inc("movement_flush_writes");

    // Persist the path from the outgoing subtree root to the global
    // root so the strict region is anchored again.
    Addr anchor[bmt::Geometry::kMaxPathNodes];
    std::size_t n_anchor = 0;
    bmt::NodeRef ref = subtreeRoot();
    while (true) {
        anchor[n_anchor++] = map().nodeAddrOf(ref);
        stats().inc("movement_flush_writes");
        if (ref.level == 1)
            break;
        ref = bmt::Geometry::parentOf(ref);
    }
    writeThroughMany(anchor, n_anchor);

    // Retargeting is one atomic NV-register transaction: the region
    // selector and the subtree-root register value switch together (a
    // crash between them would anchor the new region with the old
    // region's root hash and falsely fail recovery).
    fault::CommitScope retarget(nvm().faultDomain());
    region_ = new_region;
    refreshSubtreeRegister();
    trace().end(obs::EventClass::SubtreeMove);
}

void
AmntStrategy::onCrash()
{
    // The history buffer is volatile; the subtree-root register and
    // the global root register are non-volatile and survive. The
    // architectural tree is about to be rebuilt, so the register
    // keeps its value from here on.
    latchedRegister_ = subtreeRegister();
    registerLatched_ = true;
    history_.reset(region_);
    writesThisInterval_ = 0;
}

mee::RecoveryReport
AmntStrategy::recover()
{
    mee::RecoveryReport report;

    // Functionally rebuild and verify against both non-volatile
    // anchors: the recomputed global root must match the root
    // register, and the recomputed subtree root node must match the
    // subtree register.
    mee::RecoveryReport scratch;
    rebuildAndVerify(scratch);
    const bool subtree_ok = tree().node(subtreeRoot()) ==
                            subtreeRegister();
    report.success = scratch.success && subtree_ok;

    // Work model: only the fast subtree was allowed to be stale, so
    // recovery reads the subtree's counters and recomputes/rewrites
    // only its interior nodes (everything outside was persisted
    // strictly). Count the touched blocks inside the current region.
    const unsigned level = config().amntSubtreeLevel;
    std::uint64_t counters_in = 0;
    tree().forEachCounter(
        [&](std::uint64_t idx, const bmt::CounterBlock &) {
            if (map().geometry().regionOf(idx, level) == region_)
                ++counters_in;
        });
    std::uint64_t nodes_in = 0;
    tree().forEachNode([&](bmt::NodeRef ref, const mem::Block &) {
        if (ref.level >= level &&
            bmt::Geometry::inSubtree(ref, subtreeRoot()))
            ++nodes_in;
    });
    report.countersRecovered = counters_in;
    report.nodesRecomputed = nodes_in;
    report.blocksRead = counters_in + nodes_in;
    report.blocksWritten = nodes_in;
    report.estimatedMs =
        recoveryMs(report.blocksRead, report.blocksWritten);
    report.detail = "amnt: subtree-bounded recompute";
    return report;
}

} // namespace amnt::core
