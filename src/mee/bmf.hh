/**
 * @file
 * Bonsai Merkle Forest [Freij, Zhou & Solihin, MICRO'21].
 *
 * BMF extends the single non-volatile root register into a small
 * non-volatile on-chip cache holding a *persistent root set*: an
 * antichain of BMT nodes that together cover every counter. A data
 * write persists its path only up to the covering persistent root, so
 * hot subtrees with roots pruned close to the leaves persist cheaply
 * while cold regions behave like strict persistence. On an interval,
 * the hottest root is "pruned" into its eight children and, when the
 * NV cache is full, the coldest full sibling group is "merged" back
 * into its parent. Because every leaf is always covered, nothing is
 * stale at a crash and recovery is immediate — but the protocol can
 * never relax below its covering roots, which is the limitation AMNT
 * removes (paper section 7.3).
 */

#ifndef AMNT_MEE_BMF_HH
#define AMNT_MEE_BMF_HH

#include <unordered_map>
#include <vector>

#include "mee/protocol.hh"

namespace amnt::mee
{

/** Persistent-root-set metadata persistence. */
class BmfStrategy : public ProtocolStrategy
{
  public:
    Protocol id() const override { return Protocol::Bmf; }

    CrashProfile
    crashProfile() const override
    {
        return {true, false,
                "counter+hmac+subpath below the covering NV root "
                "commit-atomic; prune/merge each its own atomic "
                "NV-cache transaction"};
    }

    Cycle persist(const WriteContext &ctx) override;

    /** Interval prune/merge adaptation (not commit-atomic). */
    Cycle postCommit(const WriteContext &ctx) override;

    RecoveryReport recover() override;

    /** Number of roots currently in the persistent root set. */
    std::size_t rootSetSize() const { return roots_.size(); }

    /** Level of the root covering @p counter_idx (test hook). */
    unsigned coveringLevel(std::uint64_t counter_idx) const;

    /** Check the full-coverage invariant for @p counter_idx. */
    bool covers(std::uint64_t counter_idx) const;

  protected:
    void onAttach() override;

  private:
    struct RootEntry
    {
        bmt::NodeRef ref;
        mem::Block value{}; ///< NV copy of the node's latest bytes
        std::uint64_t uses = 0;
    };

    /** Index of the entry covering @p counter_idx; set is a cover. */
    std::size_t coveringIndex(std::uint64_t counter_idx) const;

    /** Refresh the NV copy of entry @p i from architectural state. */
    void refreshEntry(std::size_t i);

    /** Periodic prune/merge adaptation. */
    void adapt();

    bool inSet(bmt::NodeRef ref) const;

    /** Rebuild the linear-id lookup index after set mutations. */
    void rebuildIndex();

    std::vector<RootEntry> roots_;
    /** linearId -> index in roots_ for O(1) covering-root lookup. */
    std::unordered_map<std::uint64_t, std::size_t> index_;
    std::uint64_t writesSinceAdapt_ = 0;
};

} // namespace amnt::mee

#endif // AMNT_MEE_BMF_HH
