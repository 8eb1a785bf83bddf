/**
 * @file
 * Exhaustive crash-point scheduling with a differential recovery
 * oracle.
 *
 * A CrashSchedule drives one mee::SecureMemory — a core::FlatMemory,
 * the hybrid controller, or a ShardedEngine — through a fixed, seeded
 * workload three ways:
 *
 *  1. Count pass: replay once with the fault domain counting, which
 *     enumerates every persist-op boundary with a stable ID. A sharded
 *     engine adds boundaries of its own: the fence after each slice's
 *     epoch drain and the cross-shard commit record's persist. An
 *     attached fault domain forces serial slice-order drains, so these
 *     IDs are stable too.
 *  2. Injection passes: re-execute the workload once per selected
 *     boundary k, crashing exactly there, then run recovery.
 *  3. Oracle: after each recovery the engine must satisfy the
 *     differential checks below, or the boundary is reported with
 *     enough detail to reproduce it (AMNT_FAULT_POINT=<id>).
 *
 * A write is committed iff its commit point persisted before the
 * crash. A flat or hybrid engine commits op by op: the in-flight op
 * counts iff its commit group closed before the boundary fired. A
 * sharded engine commits by epoch: a write counts iff its epoch is at
 * most committedEpoch() after recovery. A crash between a slice's
 * drain and the commit record leaves the epoch TORN, and recovery
 * must roll every slice back to the last fully-committed epoch.
 *
 * The oracle per boundary:
 *  - recovery must succeed (root/register verification passes, on
 *    every slice);
 *  - every committed block must decrypt bit-exactly, with zero
 *    integrity violations;
 *  - each slice's recovered counter state must agree with a Volatile
 *    reference engine replaying only that slice's committed writes,
 *    after epoch coalescing (the cross-protocol agreement property of
 *    test_protocol_differential); a flat engine is one slice whose
 *    epochs hold one op each;
 *  - a post-recovery tamper of a committed block must still be
 *    detected;
 *  - the engine must accept new writes (liveness).
 *
 * Subset scheduling: boundary k is tested iff k ≡ offset (mod
 * stride), with offset derived deterministically from sampleSeed via
 * common/rng — the exhaustive matrix runs at small geometry while
 * larger geometries sample reproducibly. Environment knobs
 * (applyEnv): AMNT_FAULT_STRIDE, AMNT_FAULT_SEED, AMNT_FAULT_POINT.
 */

#ifndef AMNT_FAULT_CRASH_SCHEDULE_HH
#define AMNT_FAULT_CRASH_SCHEDULE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mee/engine.hh"

namespace amnt::fault
{

/** One crash-schedule run: protocol, geometry, workload, sampling. */
struct ScheduleConfig
{
    mee::Protocol protocol = mee::Protocol::Leaf;

    /** Drive a HybridEngine (AMNT over SCM + volatile DRAM). */
    bool hybrid = false;

    /**
     * Drive a ShardedEngine with this many slices (each gets
     * dataBytes / slices); 0 drives an unsharded engine. Exclusive
     * with hybrid.
     */
    unsigned slices = 0;

    /**
     * Buffered writes per epoch of a sharded run. Small on purpose:
     * the boundary stream must cross many epoch closes (drain fences
     * + commit records), not just engine persist ops.
     */
    std::uint64_t epochWrites = 8;

    /**
     * Engine geometry. trackContents is forced on (the oracle needs
     * functional contents); for hybrid runs dataBytes sizes each
     * partition, for sharded runs it is the total over all slices.
     */
    mee::MeeConfig mee;

    // Seeded workload (replayed identically for every boundary).
    std::uint64_t workloadSeed = 1;
    unsigned workloadOps = 96;
    std::uint64_t pages = 48;         ///< footprint in data pages
    std::uint64_t blocksPerPage = 8;  ///< distinct blocks per page
    double writeFraction = 0.7;

    // Deterministic subset scheduling.
    std::uint64_t stride = 1;      ///< test every stride-th boundary
    std::uint64_t sampleSeed = 0;  ///< offsets the strided subset
    std::optional<std::uint64_t> onlyPoint; ///< single-boundary repro
};

/** Oracle verdict for one injected boundary. */
struct BoundaryOutcome
{
    std::uint64_t point = 0;
    bool fired = false;          ///< the armed boundary was reached
    bool recovered = false;      ///< recover() reported success
    bool contentsOk = false;     ///< committed blocks bit-exact
    bool countersMatch = false;  ///< differential vs Volatile replay
    bool tamperDetected = false; ///< post-recovery tamper caught
    bool liveness = false;       ///< post-recovery write/read works

    /**
     * Slices rolled back to the committed epoch during recovery
     * (sharded targets only; 0 for flat and hybrid ones). Lets
     * coverage tests assert the boundary stream really contains
     * torn-epoch cases instead of only clean-commit crashes.
     */
    std::uint64_t tornSlices = 0;
    std::string detail;

    bool
    ok() const
    {
        return fired && recovered && contentsOk && countersMatch &&
               tamperDetected && liveness;
    }
};

/** Aggregate result of a schedule. */
struct ScheduleReport
{
    std::uint64_t totalBoundaries = 0;
    std::uint64_t tested = 0;
    std::vector<BoundaryOutcome> failures;

    bool allOk() const { return tested > 0 && failures.empty(); }

    /** Human-readable failure summary with repro instructions. */
    std::string describeFailures() const;
};

/**
 * Apply the fault-injection environment knobs onto @p cfg:
 * AMNT_FAULT_STRIDE (subset stride), AMNT_FAULT_SEED (subset offset
 * seed), AMNT_FAULT_POINT (test exactly one boundary).
 */
ScheduleConfig applyEnv(ScheduleConfig cfg);

/** Count boundaries, inject each selected one, run the oracle. */
ScheduleReport runCrashSchedule(const ScheduleConfig &cfg);

/**
 * Run the oracle for exactly one boundary (regression tests pin the
 * IDs the crash matrix flushed out).
 */
BoundaryOutcome runBoundary(const ScheduleConfig &cfg,
                            std::uint64_t point);

} // namespace amnt::fault

#endif // AMNT_FAULT_CRASH_SCHEDULE_HH
