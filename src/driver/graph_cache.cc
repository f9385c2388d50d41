#include "driver/graph_cache.hh"

#include <vector>

#include "driver/spec/spec.hh"

namespace tdm::driver {

std::string
graphKey(const Experiment &exp)
{
    static const std::vector<const spec::Binding *> workloadKeys = [] {
        std::vector<const spec::Binding *> keys;
        for (const spec::Binding &b : spec::allBindings())
            if (b.key == "workload" || b.key.starts_with("workload."))
                keys.push_back(&b);
        return keys;
    }();
    // Bindings render doubles as the shortest decimal that round-trips
    // bit-exactly, so distinct parameters never share a key.
    const Experiment n = spec::normalized(exp);
    std::string key;
    for (const spec::Binding *b : workloadKeys)
        key += b->key + '=' + b->get(n) + ';';
    return key;
}

std::shared_ptr<const rt::TaskGraph>
buildGraph(const Experiment &exp)
{
    const Experiment n = spec::normalized(exp);
    return std::make_shared<const rt::TaskGraph>(
        wl::buildWorkload(n.workload, n.params));
}

std::shared_ptr<const rt::TaskGraph>
GraphCache::obtain(const Experiment &exp)
{
    const std::string key = graphKey(exp);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(key);
        if (it != map_.end())
            return it->second;
    }
    // Build outside the lock: graph construction is the expensive part
    // and is pure, so a rare duplicate build only wastes work, never
    // correctness. First publisher wins so all consumers share one
    // instance.
    std::shared_ptr<const rt::TaskGraph> built = buildGraph(exp);
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.emplace(key, std::move(built)).first->second;
}

std::uint64_t
GraphCache::builds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
}

} // namespace tdm::driver
