/**
 * @file
 * Hierarchical stats registry: federates the per-component StatGroup,
 * Histogram, and scalar-probe instances under stable dotted paths and
 * dumps one flat JSON document per run.
 *
 * Path scheme (DESIGN.md §11): `<component>.<subpath>.<counter>`,
 * e.g. `mee.amnt.l3.subtree_movements`, `cache.l1d.0.hits`,
 * `nvm.writes`. Registration stores non-owning pointers (the
 * components keep owning their stats, exactly as before); a duplicate
 * path panics immediately, and a collision between a registered path
 * and an expanded `group.counter` key panics at dump time.
 *
 * Everything the registry snapshots is simulated state, so dumps are
 * bit-identical at any AMNT_SWEEP_THREADS. Host wall-clock metrics
 * live under the reserved `host.` prefix and stay at count 0 unless
 * AMNT_OBS_TIMING=1 opts in.
 */

#ifndef AMNT_OBS_REGISTRY_HH
#define AMNT_OBS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/stats.hh"

namespace amnt::obs
{

/**
 * Canonical JSON object for one histogram summary — the format
 * registry dumps embed per histogram and the campaign artifacts
 * reuse: {"count": N, "mean": x, "p50": x, "p95": x, "p99": x,
 * "underflow": N, "overflow": N}, doubles as %.9g.
 */
std::string summaryJson(const HistogramSummary &s);

/**
 * Non-owning federation of stats under dotted paths. Components
 * register once at construction; snapshots read the live objects.
 */
class StatRegistry
{
  public:
    /**
     * Register @p group under @p path; its counters expand to
     * `path.<counter>` keys in the dump. Panics on a duplicate path.
     */
    void addGroup(const std::string &path, StatGroup *group);

    /** Register @p hist under @p path (dumped as a summary object). */
    void addHistogram(const std::string &path, Histogram *hist);

    /**
     * Register a read-only scalar probe (e.g. a device counter
     * accessor). Evaluated at every dump.
     */
    void addScalar(const std::string &path,
                   std::function<std::uint64_t()> probe);

    /**
     * Drop every registration at or below @p prefix, so a component
     * rebuilt at run time can register its replacement.
     */
    void remove(const std::string &prefix);

    /** True when nothing has been registered. */
    bool empty() const;

    /**
     * One flat JSON object, keys in sorted order:
     *   "cache.l1d.0.hits": 123,
     *   "mee.persist_chain_depth": {"count": ..., "p50": ..., ...},
     *   "nvm.writes": 456
     * Stable across runs and sweep thread counts; panics when two
     * registrations expand to the same key.
     */
    std::string dumpJson() const;

    /**
     * Reset every registered StatGroup and Histogram in place
     * (matching StatGroup::reset: names and registrations survive).
     * Scalar probes are views onto component counters and are not
     * touched.
     */
    void reset();

  private:
    void claim(const std::string &path, const char *kind);

    std::map<std::string, StatGroup *> groups_;
    std::map<std::string, Histogram *> hists_;
    std::map<std::string, std::function<std::uint64_t()>> scalars_;
    std::map<std::string, const char *> claimed_;
};

} // namespace amnt::obs

#endif // AMNT_OBS_REGISTRY_HH
