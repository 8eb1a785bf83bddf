#include "core/protocol_registry.hh"

#include <algorithm>

#include "common/log.hh"
#include "core/amnt.hh"
#include "mee/anubis.hh"
#include "mee/baselines.hh"
#include "mee/bmf.hh"
#include "mee/phoenix.hh"
#include "mee/stit.hh"

namespace amnt::core
{

namespace
{

template <typename S>
std::unique_ptr<mee::ProtocolStrategy>
makeDefault(const mee::MeeConfig &)
{
    return std::make_unique<S>();
}

std::unique_ptr<mee::ProtocolStrategy>
makeAmnt(const mee::MeeConfig &config)
{
    return std::make_unique<AmntStrategy>(config);
}

} // namespace

const std::vector<ProtocolInfo> &
protocolRegistry()
{
    static const std::vector<ProtocolInfo> table = {
        {mee::Protocol::Volatile, "volatile",
         "write-back secure memory, no crash consistency "
         "(normalization baseline)",
         "", -1, false, makeDefault<mee::VolatileStrategy>},
        {mee::Protocol::Strict, "strict",
         "write-through of the whole ancestral path on every write",
         "", 1, false, makeDefault<mee::StrictStrategy>},
        {mee::Protocol::Leaf, "leaf",
         "counters+HMACs persist with the write; full tree recompute "
         "at recovery",
         "", 0, false, makeDefault<mee::LeafStrategy>},
        {mee::Protocol::Osiris, "osiris",
         "stop-loss counter persistence; recovery re-derives counters "
         "by HMAC trial",
         "osirisStopLoss", -1, false,
         makeDefault<mee::OsirisStrategy>},
        {mee::Protocol::Anubis, "anubis",
         "NVM shadow table mirroring the metadata cache; cache-size "
         "bound recovery",
         "", 2, false, makeDefault<mee::AnubisStrategy>},
        {mee::Protocol::Bmf, "bmf",
         "persistent root set (Bonsai Merkle Forest) with prune/merge "
         "adaptation",
         "bmfRootCacheEntries, bmfInterval", 3, false,
         makeDefault<mee::BmfStrategy>},
        {mee::Protocol::Amnt, "amnt",
         "the paper's tree-within-a-tree: one lazy fast subtree, "
         "strict elsewhere",
         "amntSubtreeLevel, amntInterval, amntHistoryEntries", 4,
         false, makeAmnt},
        {mee::Protocol::Phoenix, "phoenix",
         "leaf-style persistence with epoch-batched node flushes "
         "(tree-of-counters restore)",
         "phoenixEpoch", -1, true,
         makeDefault<mee::PhoenixStrategy>},
        {mee::Protocol::Stit, "stit",
         "coalesced BMT update pipeline: node persists drain from a "
         "bounded volatile queue",
         "stitQueueDepth, stitDrain", -1, true,
         makeDefault<mee::StitStrategy>},
    };
    return table;
}

const ProtocolInfo &
protocolInfo(mee::Protocol p)
{
    for (const ProtocolInfo &info : protocolRegistry())
        if (info.id == p)
            return info;
    fatal("protocol %u is not registered",
          static_cast<unsigned>(p));
}

std::optional<mee::Protocol>
findProtocol(const std::string &name)
{
    for (const ProtocolInfo &info : protocolRegistry())
        if (name == info.name)
            return info.id;
    return std::nullopt;
}

mee::Protocol
protocolByName(const std::string &name)
{
    if (const auto p = findProtocol(name))
        return *p;
    fatal("unknown protocol '%s' (registered: %s)", name.c_str(),
          protocolNameList().c_str());
}

std::string
protocolNameList()
{
    std::string list;
    for (const ProtocolInfo &info : protocolRegistry()) {
        if (!list.empty())
            list += ", ";
        list += info.name;
    }
    return list;
}

std::vector<mee::Protocol>
allProtocols()
{
    std::vector<mee::Protocol> out;
    for (const ProtocolInfo &info : protocolRegistry())
        out.push_back(info.id);
    return out;
}

std::vector<mee::Protocol>
persistentProtocols()
{
    std::vector<mee::Protocol> out;
    for (const ProtocolInfo &info : protocolRegistry())
        if (crashProfileOf(info.id).persistent)
            out.push_back(info.id);
    return out;
}

std::vector<mee::Protocol>
tamperAtRestProtocols()
{
    std::vector<mee::Protocol> out;
    for (const ProtocolInfo &info : protocolRegistry())
        if (crashProfileOf(info.id).tamperAtRestDetects)
            out.push_back(info.id);
    return out;
}

std::vector<mee::Protocol>
figureProtocols()
{
    std::vector<std::pair<int, mee::Protocol>> ordered;
    for (const ProtocolInfo &info : protocolRegistry())
        if (info.figureOrder >= 0)
            ordered.emplace_back(info.figureOrder, info.id);
    std::sort(ordered.begin(), ordered.end());
    std::vector<mee::Protocol> out;
    for (const auto &kv : ordered)
        out.push_back(kv.second);
    return out;
}

std::vector<mee::Protocol>
fig04ExtraProtocols()
{
    std::vector<mee::Protocol> out;
    for (const ProtocolInfo &info : protocolRegistry())
        if (info.fig04Extra)
            out.push_back(info.id);
    return out;
}

mee::CrashProfile
crashProfileOf(mee::Protocol p)
{
    // The profile is a static declaration: read it off a detached
    // strategy built against default knobs.
    const mee::MeeConfig defaults;
    return protocolInfo(p).make(defaults)->crashProfile();
}

std::unique_ptr<mee::ProtocolStrategy>
makeProtocol(mee::Protocol p, const mee::MeeConfig &config)
{
    return protocolInfo(p).make(config);
}

std::unique_ptr<mee::MemoryEngine>
makeEngine(mee::Protocol p, const mee::MeeConfig &config,
           mem::NvmDevice &nvm)
{
    return std::make_unique<mee::MemoryEngine>(config, nvm,
                                               makeProtocol(p, config));
}

FlatMemory::FlatMemory(mee::Protocol p, const mee::MeeConfig &config,
                       const mem::NvmTiming &timing)
    : nvm_(mem::MemoryMap(config.dataBytes).deviceBytes(), timing),
      engine_(makeEngine(p, config, nvm_))
{
}

void
FlatMemory::registerStats(obs::StatRegistry &reg,
                          const std::string &suffix)
{
    engine_->registerStats(reg, "mee" + suffix);
    nvm_.registerStats(reg, "nvm" + suffix);
}

} // namespace amnt::core
