#include "obs/registry.hh"

#include <cstdio>

#include "common/log.hh"

namespace amnt::obs
{

namespace
{

std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

} // namespace

std::string
summaryJson(const HistogramSummary &s)
{
    // Key set is part of the dump format (diffed by the record/replay
    // CI leg): count, mean, p50, p95, p99, underflow, overflow.
    std::string out = "{\"count\": " + std::to_string(s.count);
    out += ", \"mean\": " + formatDouble(s.mean);
    out += ", \"p50\": " + formatDouble(s.p50);
    out += ", \"p95\": " + formatDouble(s.p95);
    out += ", \"p99\": " + formatDouble(s.p99);
    out += ", \"underflow\": " + std::to_string(s.underflow);
    out += ", \"overflow\": " + std::to_string(s.overflow);
    out += "}";
    return out;
}

void
StatRegistry::claim(const std::string &path, const char *kind)
{
    if (path.empty())
        panic("StatRegistry: empty path");
    auto [it, inserted] = claimed_.emplace(path, kind);
    if (!inserted) {
        panic("StatRegistry: duplicate path '%s' (%s already registered)",
              path.c_str(), it->second);
    }
}

void
StatRegistry::addGroup(const std::string &path, StatGroup *group)
{
    claim(path, "group");
    groups_[path] = group;
}

void
StatRegistry::addHistogram(const std::string &path, Histogram *hist)
{
    claim(path, "histogram");
    hists_[path] = hist;
}

void
StatRegistry::addScalar(const std::string &path,
                        std::function<std::uint64_t()> probe)
{
    claim(path, "scalar");
    scalars_[path] = std::move(probe);
}

void
StatRegistry::remove(const std::string &prefix)
{
    const auto below = [&](const auto &entry) {
        return entry.first == prefix ||
               entry.first.starts_with(prefix + ".");
    };
    std::erase_if(groups_, below);
    std::erase_if(hists_, below);
    std::erase_if(scalars_, below);
    std::erase_if(claimed_, below);
}

bool
StatRegistry::empty() const
{
    return claimed_.empty();
}

std::string
StatRegistry::dumpJson() const
{
    // Expand every registration into its final key first; std::map
    // gives the stable sorted order and detects expanded-key
    // collisions (a scalar "mee.x" vs a group "mee" with counter "x").
    std::map<std::string, std::string> flat;
    auto emit = [&](const std::string &key, std::string value) {
        auto [it, inserted] = flat.emplace(key, std::move(value));
        if (!inserted)
            panic("StatRegistry: key collision on '%s'", key.c_str());
    };

    for (const auto &[path, group] : groups_) {
        for (const auto &[name, value] : group->all())
            emit(path + "." + name, std::to_string(value));
    }
    for (const auto &[path, hist] : hists_)
        emit(path, summaryJson(hist->snapshot()));
    for (const auto &[path, probe] : scalars_)
        emit(path, std::to_string(probe()));

    std::string out = "{";
    bool first = true;
    for (const auto &[key, value] : flat) {
        out += first ? "\n  \"" : ",\n  \"";
        first = false;
        out += key;
        out += "\": ";
        out += value;
    }
    out += first ? "}" : "\n}";
    return out;
}

void
StatRegistry::reset()
{
    for (auto &[path, group] : groups_)
        group->reset();
    for (auto &[path, hist] : hists_)
        hist->reset();
}

} // namespace amnt::obs
