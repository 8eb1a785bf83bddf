/**
 * Microbenchmarks (google-benchmark): throughput of the crypto
 * primitives both planes are built on, plus the per-operation cost of
 * the secure-memory engine's hot paths. These justify the fast-plane
 * design choice in DESIGN.md: SipHash-based metadata hashing is ~20x
 * cheaper than HMAC-SHA-256, which is what makes the multi-million
 * access figure sweeps tractable.
 *
 * Beyond the fixed baseline set (names kept stable so runs stay
 * comparable with results/micro_crypto_seed_baseline.txt), the binary
 * registers at startup:
 *
 *  - one variant of each dispatchable primitive per *available* ISA
 *    path ("BM_Sha256_64B/isa:shani", ...), so the win of each kernel
 *    is measured, not assumed;
 *  - batch-width sweeps of the mac64xN/padxN engine entry points on
 *    both planes ("BM_Mac64xN_Hmac/64", ...), including batch-disabled
 *    controls that degrade to the scalar reference loop.
 *
 * Accepts `--json <path>` (or AMNT_BENCH_JSON) and mirrors every
 * result row into the machine-readable sink used by the experiment
 * harnesses, tagged with the dispatch path it ran on.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/amnt.hh"
#include "crypto/dispatch.hh"
#include "crypto/engines.hh"

using namespace amnt;

namespace
{

// ------------------------------------------------ fixed baseline set

void
BM_Sha256_64B(benchmark::State &state)
{
    std::uint8_t buf[64] = {1, 2, 3};
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            crypto::Sha256::digest(buf, sizeof(buf)));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Sha256_64B);

void
BM_HmacSha256_64B(benchmark::State &state)
{
    crypto::HmacSha256 mac("bench-key", 9);
    std::uint8_t buf[64] = {1, 2, 3};
    for (auto _ : state)
        benchmark::DoNotOptimize(mac.mac64(buf, sizeof(buf)));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_HmacSha256_64B);

void
BM_SipHash_64B(benchmark::State &state)
{
    crypto::SipHash24 sip(1, 2);
    std::uint8_t buf[64] = {1, 2, 3};
    for (auto _ : state)
        benchmark::DoNotOptimize(sip.mac(buf, sizeof(buf)));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_SipHash_64B);

void
BM_Aes128Block(benchmark::State &state)
{
    crypto::Aes128 aes(crypto::AesBlock{0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                        10, 11, 12, 13, 14, 15});
    crypto::AesBlock in{};
    for (auto _ : state) {
        in = aes.encrypt(in);
        benchmark::DoNotOptimize(in);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_Aes128Block);

void
BM_PadGeneration(benchmark::State &state)
{
    const auto plane = state.range(0) == 0
                           ? crypto::CryptoPlane::Fast
                           : crypto::CryptoPlane::Functional;
    crypto::CryptoSuite suite = crypto::CryptoSuite::make(plane, 7);
    std::uint8_t pad[kBlockSize];
    std::uint64_t addr = 0;
    for (auto _ : state) {
        suite.enc->pad(addr += 64, 3, 5, pad);
        benchmark::DoNotOptimize(pad);
    }
}
BENCHMARK(BM_PadGeneration)->Arg(0)->Arg(1);

void
BM_EngineWrite(benchmark::State &state)
{
    const auto protocol = static_cast<mee::Protocol>(state.range(0));
    mee::MeeConfig cfg;
    cfg.dataBytes = 64ull << 20;
    cfg.keySeed = 5;
    core::FlatMemory memory(protocol, cfg);
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            memory.write(((i++) % 16384) * kPageSize));
    }
}
BENCHMARK(BM_EngineWrite)
    ->Arg(static_cast<int>(mee::Protocol::Volatile))
    ->Arg(static_cast<int>(mee::Protocol::Leaf))
    ->Arg(static_cast<int>(mee::Protocol::Strict))
    ->Arg(static_cast<int>(mee::Protocol::Amnt));

void
BM_EngineRead(benchmark::State &state)
{
    mee::MeeConfig cfg;
    cfg.dataBytes = 64ull << 20;
    cfg.keySeed = 5;
    core::FlatMemory memory(mee::Protocol::Amnt, cfg);
    for (std::uint64_t p = 0; p < 4096; ++p)
        memory.write(p * kPageSize);
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            memory.read(((i++) % 4096) * kPageSize));
    }
}
BENCHMARK(BM_EngineRead);

// ------------------------------------------- dispatch-path variants

namespace dispatch = crypto::dispatch;

/** Pin one ISA for the duration of a benchmark, restore after. */
class IsaScope
{
  public:
    explicit IsaScope(dispatch::Isa isa) : saved_(dispatch::active().isa)
    {
        dispatch::select(isa);
    }
    ~IsaScope() { dispatch::select(saved_); }

  private:
    dispatch::Isa saved_;
};

const std::vector<dispatch::Isa> &
availableIsas()
{
    static const std::vector<dispatch::Isa> isas = [] {
        std::vector<dispatch::Isa> v;
        for (auto isa : {dispatch::Isa::Scalar, dispatch::Isa::AesNi,
                         dispatch::Isa::ShaNi, dispatch::Isa::Native})
            if (dispatch::available(isa))
                v.push_back(isa);
        return v;
    }();
    return isas;
}

void
isaSha256(benchmark::State &state, dispatch::Isa isa)
{
    IsaScope scope(isa);
    std::uint8_t buf[64] = {1, 2, 3};
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            crypto::Sha256::digest(buf, sizeof(buf)));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 64);
}

void
isaHmac(benchmark::State &state, dispatch::Isa isa)
{
    IsaScope scope(isa);
    crypto::HmacSha256 mac("bench-key", 9);
    std::uint8_t buf[64] = {1, 2, 3};
    for (auto _ : state)
        benchmark::DoNotOptimize(mac.mac64(buf, sizeof(buf)));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 64);
}

void
isaAesBlock(benchmark::State &state, dispatch::Isa isa)
{
    IsaScope scope(isa);
    crypto::Aes128 aes(crypto::AesBlock{0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                        10, 11, 12, 13, 14, 15});
    crypto::AesBlock in{};
    for (auto _ : state) {
        in = aes.encrypt(in);
        benchmark::DoNotOptimize(in);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 16);
}

// ----------------------------------------------- batch-width sweeps

void
batchMac(benchmark::State &state, crypto::CryptoPlane plane, bool wide)
{
    const bool saved = dispatch::batchEnabled();
    dispatch::setBatchEnabled(wide);
    crypto::CryptoSuite suite = crypto::CryptoSuite::make(plane, 7);
    const std::size_t width = static_cast<std::size_t>(state.range(0));
    std::vector<std::uint8_t> bufs(width * kBlockSize);
    for (std::size_t i = 0; i < bufs.size(); ++i)
        bufs[i] = static_cast<std::uint8_t>(i * 131 + 7);
    std::vector<crypto::MacRequest> reqs(width);
    for (std::size_t i = 0; i < width; ++i)
        reqs[i] = {bufs.data() + i * kBlockSize, kBlockSize,
                   0x1000 + i * kBlockSize};
    std::vector<std::uint64_t> macs(width);
    for (auto _ : state) {
        suite.hash->mac64xN(reqs.data(), width, macs.data());
        benchmark::DoNotOptimize(macs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(width));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(width * kBlockSize));
    dispatch::setBatchEnabled(saved);
}

void
batchPad(benchmark::State &state, crypto::CryptoPlane plane, bool wide)
{
    const bool saved = dispatch::batchEnabled();
    dispatch::setBatchEnabled(wide);
    crypto::CryptoSuite suite = crypto::CryptoSuite::make(plane, 7);
    const std::size_t width = static_cast<std::size_t>(state.range(0));
    std::vector<crypto::PadRequest> reqs(width);
    for (std::size_t i = 0; i < width; ++i)
        reqs[i] = {static_cast<Addr>(i * kBlockSize), 3,
                   static_cast<std::uint8_t>(i & 0x7f)};
    std::vector<std::uint8_t> pads(width * kBlockSize);
    for (auto _ : state) {
        suite.enc->padxN(reqs.data(), width, pads.data());
        benchmark::DoNotOptimize(pads.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(width));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(width * kBlockSize));
    dispatch::setBatchEnabled(saved);
}

void
registerDynamicBenchmarks()
{
    for (auto isa : availableIsas()) {
        const std::string tag =
            std::string("/isa:") + dispatch::isaName(isa);
        benchmark::RegisterBenchmark(
            ("BM_Sha256_64B" + tag).c_str(),
            [isa](benchmark::State &s) { isaSha256(s, isa); });
        benchmark::RegisterBenchmark(
            ("BM_HmacSha256_64B" + tag).c_str(),
            [isa](benchmark::State &s) { isaHmac(s, isa); });
        benchmark::RegisterBenchmark(
            ("BM_Aes128Block" + tag).c_str(),
            [isa](benchmark::State &s) { isaAesBlock(s, isa); });
    }

    struct BatchBench
    {
        const char *name;
        crypto::CryptoPlane plane;
        bool wide;
        void (*fn)(benchmark::State &, crypto::CryptoPlane, bool);
    };
    static const BatchBench kBatchSet[] = {
        {"BM_Mac64xN_Hmac", crypto::CryptoPlane::Functional, true,
         batchMac},
        {"BM_Mac64xN_Sip", crypto::CryptoPlane::Fast, true, batchMac},
        {"BM_Mac64xN_Sip_nobatch", crypto::CryptoPlane::Fast, false,
         batchMac},
        {"BM_PadxN_Aes", crypto::CryptoPlane::Functional, true,
         batchPad},
        {"BM_PadxN_Aes_nobatch", crypto::CryptoPlane::Functional,
         false, batchPad},
        {"BM_PadxN_Fast", crypto::CryptoPlane::Fast, true, batchPad},
        {"BM_PadxN_Fast_nobatch", crypto::CryptoPlane::Fast, false,
         batchPad},
    };
    for (const auto &b : kBatchSet) {
        auto *bench = benchmark::RegisterBenchmark(
            b.name,
            [fn = b.fn, plane = b.plane,
             wide = b.wide](benchmark::State &s) { fn(s, plane, wide); });
        bench->Arg(1)->Arg(4)->Arg(8)->Arg(64);
    }
}

// --------------------------------------------------------- JSON sink

/**
 * Console reporter that additionally mirrors every measured run into
 * the shared bench JSON sink, tagged with the active dispatch path so
 * downstream tooling can compare ISA variants across runs.
 */
class SinkReporter : public benchmark::ConsoleReporter
{
  public:
    explicit SinkReporter(bench::JsonSink &sink) : sink_(&sink) {}

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const auto &run : runs) {
            if (run.error_occurred || run.repetition_index > 0)
                continue;
            bench::JsonRow row;
            row.field("label", run.benchmark_name())
                .field("default_isa",
                       std::string(
                           dispatch::isaName(dispatch::active().isa)))
                .field("batch_default", dispatch::batchEnabled())
                .field("real_ns_per_op", run.GetAdjustedRealTime())
                .field("cpu_ns_per_op", run.GetAdjustedCPUTime())
                .field("iterations",
                       static_cast<std::uint64_t>(run.iterations));
            const auto bytes = run.counters.find("bytes_per_second");
            if (bytes != run.counters.end())
                row.field("bytes_per_second", double(bytes->second));
            const auto items = run.counters.find("items_per_second");
            if (items != run.counters.end())
                row.field("items_per_second", double(items->second));
            sink_->add(row);
        }
        ConsoleReporter::ReportRuns(runs);
    }

  private:
    bench::JsonSink *sink_;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonSink sink(argc, argv, "micro_crypto");

    // google-benchmark rejects flags it does not know; strip the
    // `--json <path>` pair the sink consumed before handing over.
    std::vector<char *> fwd;
    fwd.reserve(static_cast<std::size_t>(argc));
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            ++i;
            continue;
        }
        fwd.push_back(argv[i]);
    }
    int fwd_argc = static_cast<int>(fwd.size());

    registerDynamicBenchmarks();
    benchmark::Initialize(&fwd_argc, fwd.data());
    if (benchmark::ReportUnrecognizedArguments(fwd_argc, fwd.data()))
        return 1;
    SinkReporter reporter(sink);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    return 0;
}
