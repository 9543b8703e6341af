#include "sim/registry.hh"

#include <cassert>
#include <cstdio>

namespace anic::sim {

double
Distribution::min() const
{
    assert(!samples_.empty());
    return *std::min_element(samples_.begin(), samples_.end());
}

double
Distribution::max() const
{
    assert(!samples_.empty());
    return *std::max_element(samples_.begin(), samples_.end());
}

double
Distribution::percentile(double p) const
{
    assert(!samples_.empty());
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    if (p <= 0.0)
        return sorted.front();
    if (p >= 100.0)
        return sorted.back();
    // Nearest-rank: smallest value with at least p% of samples <= it.
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
    if (rank == 0)
        rank = 1;
    return sorted[rank - 1];
}

double
Distribution::trimmedMean() const
{
    if (samples_.size() <= 2)
        return mean();
    double sum = 0.0;
    for (double v : samples_)
        sum += v;
    sum -= min();
    sum -= max();
    return sum / static_cast<double>(samples_.size() - 2);
}

namespace {

void
appendNumber(std::string &out, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    out += buf;
}

void
appendNumber(std::string &out, uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu", (unsigned long long)v);
    out += buf;
}

} // namespace

void
appendInstrumentJson(const InstrumentRef &ref, std::string &out)
{
    std::visit(
        [&out](auto *inst) {
            using T = std::decay_t<std::remove_pointer_t<decltype(inst)>>;
            if constexpr (std::is_same_v<T, Counter>) {
                appendNumber(out, inst->value());
            } else if constexpr (std::is_same_v<T, Gauge>) {
                appendNumber(out, inst->value());
            } else if constexpr (std::is_same_v<T, Distribution>) {
                out += "{\"count\":";
                appendNumber(out, (uint64_t)inst->count());
                if (!inst->empty()) {
                    out += ",\"mean\":";
                    appendNumber(out, inst->mean());
                    out += ",\"min\":";
                    appendNumber(out, inst->min());
                    out += ",\"max\":";
                    appendNumber(out, inst->max());
                    out += ",\"p50\":";
                    appendNumber(out, inst->percentile(50));
                    out += ",\"p90\":";
                    appendNumber(out, inst->percentile(90));
                    out += ",\"p99\":";
                    appendNumber(out, inst->percentile(99));
                }
                out += "}";
            } else {
                out += "{\"total\":";
                appendNumber(out, inst->total());
                out += ",\"elapsedNs\":";
                appendNumber(out, (uint64_t)(inst->elapsed() / kNanosecond));
                out += ",\"perSec\":";
                appendNumber(out, inst->perSecond());
                out += "}";
            }
        },
        ref);
}

void
StatsRegistry::put(const std::string &path, InstrumentRef ref,
                   std::shared_ptr<void> owned)
{
    entries_[path] = Entry{ref, std::move(owned)};
}

template <typename T>
T &
StatsRegistry::ownedInstrument(const std::string &path)
{
    auto it = entries_.find(path);
    if (it != entries_.end()) {
        if (auto *p = std::get_if<const T *>(&it->second.ref)) {
            // const_cast is safe: owned instruments are created
            // non-const below; linked ones belong to the component
            // and must be mutated through the component.
            if (it->second.owned)
                return *const_cast<T *>(*p);
        }
    }
    auto inst = std::make_shared<T>();
    // Take the raw pointer before the call: argument evaluation order
    // is unspecified, so inst.get() inside the argument list could
    // run after std::move(inst) empties it.
    T *raw = inst.get();
    put(path, InstrumentRef{static_cast<const T *>(raw)}, std::move(inst));
    return *raw;
}

Counter &
StatsRegistry::counter(const std::string &path)
{
    return ownedInstrument<Counter>(path);
}

Gauge &
StatsRegistry::gauge(const std::string &path)
{
    return ownedInstrument<Gauge>(path);
}

Distribution &
StatsRegistry::distribution(const std::string &path)
{
    return ownedInstrument<Distribution>(path);
}

RateMeter &
StatsRegistry::rate(const std::string &path)
{
    return ownedInstrument<RateMeter>(path);
}

void
StatsRegistry::removeSubtree(const std::string &prefix)
{
    auto it = entries_.lower_bound(prefix);
    while (it != entries_.end()) {
        const std::string &key = it->first;
        bool inside = key == prefix ||
                      (key.size() > prefix.size() &&
                       key.compare(0, prefix.size(), prefix) == 0 &&
                       key[prefix.size()] == '.');
        if (!inside) {
            // map is sorted; once past "prefix." + anything, stop.
            if (key.compare(0, prefix.size(), prefix) != 0)
                break;
            ++it;
            continue;
        }
        it = entries_.erase(it);
    }
}

const Counter *
StatsRegistry::findCounter(const std::string &path) const
{
    auto it = entries_.find(path);
    if (it == entries_.end())
        return nullptr;
    auto *p = std::get_if<const Counter *>(&it->second.ref);
    return p ? *p : nullptr;
}

const Gauge *
StatsRegistry::findGauge(const std::string &path) const
{
    auto it = entries_.find(path);
    if (it == entries_.end())
        return nullptr;
    auto *p = std::get_if<const Gauge *>(&it->second.ref);
    return p ? *p : nullptr;
}

const Distribution *
StatsRegistry::findDistribution(const std::string &path) const
{
    auto it = entries_.find(path);
    if (it == entries_.end())
        return nullptr;
    auto *p = std::get_if<const Distribution *>(&it->second.ref);
    return p ? *p : nullptr;
}

void
StatsRegistry::forEach(
    const std::function<void(const std::string &, const InstrumentRef &)> &fn)
    const
{
    for (const auto &[path, entry] : entries_)
        fn(path, entry.ref);
}

bool
StatsRegistry::subtreeOccupied(const std::string &prefix) const
{
    if (claimed_.find(prefix) != claimed_.end())
        return true;
    auto it = entries_.lower_bound(prefix);
    if (it == entries_.end())
        return false;
    const std::string &key = it->first;
    return key == prefix ||
           (key.size() > prefix.size() &&
            key.compare(0, prefix.size(), prefix) == 0 &&
            key[prefix.size()] == '.');
}

std::string
StatsRegistry::uniqueName(const std::string &base) const
{
    if (!subtreeOccupied(base))
        return base;
    for (int i = 2;; ++i) {
        std::string cand = base + std::to_string(i);
        if (!subtreeOccupied(cand))
            return cand;
    }
}

namespace {

std::vector<std::string>
splitPath(const std::string &path)
{
    std::vector<std::string> segs;
    size_t start = 0;
    while (true) {
        size_t dot = path.find('.', start);
        if (dot == std::string::npos) {
            segs.push_back(path.substr(start));
            break;
        }
        segs.push_back(path.substr(start, dot - start));
        start = dot + 1;
    }
    return segs;
}

} // namespace

void
StatsRegistry::writeJson(std::string &out) const
{
    // entries_ is path-sorted, so the nested object can be emitted in
    // one pass by tracking the open segment stack.
    out += "{";
    std::vector<std::string> open;
    bool first = true;
    for (const auto &[path, entry] : entries_) {
        std::vector<std::string> segs = splitPath(path);
        // leaf name is the last segment; parents are the rest
        size_t common = 0;
        while (common < open.size() && common + 1 < segs.size() &&
               open[common] == segs[common])
            ++common;
        while (open.size() > common) {
            out += "}";
            open.pop_back();
            first = false; // the group just closed is a prior entry
        }
        for (size_t i = common; i + 1 < segs.size(); ++i) {
            if (!first)
                out += ",";
            out += "\"" + segs[i] + "\":{";
            open.push_back(segs[i]);
            first = true;
        }
        if (!first)
            out += ",";
        out += "\"" + segs.back() + "\":";
        appendInstrumentJson(entry.ref, out);
        first = false;
    }
    while (!open.empty()) {
        out += "}";
        open.pop_back();
    }
    out += "}";
}

std::string
StatsRegistry::jsonSnapshot() const
{
    std::string out;
    writeJson(out);
    return out;
}

} // namespace anic::sim
