/**
 * @file
 * Synthetic workload generation and trace replay.
 *
 * The metadata-persistence protocols under study are sensitive only
 * to the stream of (virtual address, read/write) references and its
 * spatial structure, so each PARSEC/SPEC benchmark is modeled as a
 * parameterized address-stream generator: footprint, memory
 * intensity, write fraction, a hot cluster with Zipf popularity, a
 * sequential streaming component, and optional page churn (frees that
 * exercise OS reclamation). Presets calibrated to the per-benchmark
 * behaviour the paper reports live in sim/presets.cc.
 *
 * Beyond the calibrated Synthetic generator, five microbenchmark
 * kinds widen the access-pattern space (WorkloadKind): footprint-wide
 * Zipfian hot/cold, GUPS-style random read-modify-write, STREAM-style
 * sequential with a configurable write share, a Zipf-keyed key-value
 * get/put mix, and a permutation-walk pointer chase. A workload can
 * also replay a recorded trace (sim/traceio/) instead of
 * synthesizing.
 *
 * Determinism contract (locked by tests/sim/test_sweep.cc): every
 * draw a generator makes flows through the instance's own rng_ seeded
 * from WorkloadConfig::seed — no global or static randomness — so a
 * workload's reference stream depends only on its own config, never
 * on which other workloads run in the same process or sweep.
 */

#ifndef AMNT_SIM_WORKLOAD_HH
#define AMNT_SIM_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.hh"
#include "common/types.hh"

namespace amnt::sim
{

/** Address-stream generator family. */
enum class WorkloadKind : std::uint8_t
{
    /** Calibrated benchmark model (hot cluster + stream + runs). */
    Synthetic,

    /** Zipf(zipfAlpha) popularity over the whole footprint, ranks
     *  scattered across the address space (hot/cold skew without
     *  spatial clustering). */
    Zipfian,

    /** GUPS-style random update: uniform random block, read then
     *  write of the same block (exact read-modify-write pairs). */
    Gups,

    /** STREAM-style sequential sweeps: reads walk the lower half of
     *  the footprint, writes walk the upper half; writeFraction sets
     *  the write share. */
    Stream,

    /** Key-value get/put mix: Zipf-popular keys map to
     *  kvValueBlocks-block values read/written sequentially;
     *  writeFraction is the put share. */
    KeyValue,

    /** Pointer chase: a full-period permutation walk over a
     *  power-of-two block set (lat_mem_rd-style scrambled linked
     *  list); writeFraction marks nodes in place. */
    PointerChase,
};

/** Generator parameters for one benchmark. */
struct WorkloadConfig
{
    std::string name = "synthetic";

    /** Which generator family produces the stream. */
    WorkloadKind kind = WorkloadKind::Synthetic;

    /** Virtual footprint in 4 KB pages. */
    std::uint64_t footprintPages = 16 * 1024;

    /** Memory references issued per instruction. */
    double memIntensity = 0.10;

    /** Fraction of references that are writes. */
    double writeFraction = 0.25;

    /** Fraction of the footprint forming the hot cluster. */
    double hotPagesFraction = 0.05;

    /** Fraction of reads directed at the hot cluster. */
    double readHotFraction = 0.7;

    /** Fraction of writes directed at the hot cluster. */
    double writeHotFraction = 0.8;

    /** Zipf skew inside the hot cluster (0 = uniform); for the
     *  Zipfian and KeyValue kinds, the skew of the whole key space. */
    double zipfAlpha = 0.8;

    /** Fraction of references that stream sequentially. */
    double streamFraction = 0.1;

    /**
     * Probability of continuing a spatial run: the next reference is
     * the next 64 B block after the previous one. Real programs walk
     * structures, so consecutive blocks (which share HMAC blocks and
     * counter blocks) cluster; pointer-chasing workloads set this
     * low.
     */
    double spatialRun = 0.7;

    /**
     * Page churn: every this many references, one cold virtual page
     * is freed (returned to the OS) and later refaulted; 0 disables.
     * This is what exercises reclamation (and AMNT++ restructuring).
     */
    std::uint64_t churnEvery = 0;

    /**
     * Fraction of writes that are explicitly persisted (clwb-style),
     * as the paper's in-memory storage applications do under an SCM
     * persistence model. Flushed writes reach the secure-memory
     * engine immediately instead of waiting for an LLC write-back.
     */
    double flushWriteFraction = 0.0;

    /** Value size of the KeyValue kind, in 64 B blocks. */
    std::uint64_t kvValueBlocks = 4;

    /**
     * When non-empty, replay this recorded trace (see sim/traceio/)
     * instead of synthesizing references; the trace wraps around at
     * its end. The recorded instruction gaps gate issue, not
     * memIntensity; other generator parameters are ignored in trace
     * mode.
     */
    std::string traceFile;

    std::uint64_t seed = 42;
};

/** One generated reference. */
struct MemRef
{
    Addr vaddr = 0;
    AccessType type = AccessType::Read;
    bool isInstruction = false; ///< reserved; data refs only for now

    /** Write must persist immediately (persistence-model flush). */
    bool flush = false;

    /** Set when this reference wants vaddr's page dropped first. */
    bool churnPage = false;
    PageId churnVictim = 0;
};

namespace traceio
{
class TraceReader;
struct TraceRecord;
} // namespace traceio

/** Deterministic address-stream generator (or trace replayer). */
class Workload
{
  public:
    explicit Workload(const WorkloadConfig &config);
    ~Workload();

    /** Next reference in the stream. */
    MemRef next();

    /** Should the current instruction issue a memory reference? */
    bool
    issuesMemRef(Rng &core_rng) const
    {
        return core_rng.chance(config_.memIntensity);
    }

    /**
     * True when this workload replays a trace: reference issue is
     * then driven by replayTick(), not issuesMemRef().
     */
    bool timedReplay() const { return trace_ != nullptr; }

    /**
     * Timed replay only: account one executed instruction. Returns
     * true when the trace schedules a reference on this instruction
     * (fetch it with next()). Defined here, like issuesMemRef(),
     * because the system model calls it once per instruction.
     */
    bool
    replayTick()
    {
        if (replayCountdown_ > 0)
            --replayCountdown_;
        return replayCountdown_ == 0;
    }

    const WorkloadConfig &config() const { return config_; }

  private:
    Addr pickPage(bool is_write);
    MemRef nextSynthetic();
    MemRef nextZipfian();
    MemRef nextGups();
    MemRef nextStream();
    MemRef nextKeyValue();
    MemRef nextPointerChase();
    MemRef nextFromTrace();
    void prefetchTrace();

    WorkloadConfig config_;
    Rng rng_;
    ZipfSampler hotZipf_;
    std::uint64_t hotPages_;
    std::uint64_t streamPos_ = 0;
    Addr lastVaddr_ = 0;
    std::uint64_t refs_ = 0;

    // Zipfian / KeyValue: popularity over the whole footprint.
    std::unique_ptr<ZipfSampler> fullZipf_;

    // Gups: second half of the current read-modify-write pair.
    bool gupsWritePending_ = false;
    Addr gupsAddr_ = 0;

    // Stream: independent read and write cursors.
    Addr streamReadPos_ = 0;
    Addr streamWritePos_ = 0;

    // KeyValue: remaining blocks of the op in flight.
    std::uint64_t kvSlots_ = 0;
    std::uint64_t kvRemaining_ = 0;
    Addr kvNextAddr_ = 0;
    bool kvIsPut_ = false;

    // PointerChase: k-bit LCG state walking a block permutation.
    std::uint64_t chaseState_ = 0;
    std::uint64_t chaseMask_ = 0;
    std::uint64_t chaseInc_ = 1;

    // Trace replay.
    std::unique_ptr<traceio::TraceReader> trace_;
    std::unique_ptr<traceio::TraceRecord> pending_;
    std::uint64_t replayCountdown_ = 0;
};

} // namespace amnt::sim

#endif // AMNT_SIM_WORKLOAD_HH
