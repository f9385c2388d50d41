#include "sim/metrics.hh"

#include <charconv>
#include <string_view>

#include "sim/suggest.hh"

namespace tdm::sim {

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Average: return "average";
      case MetricKind::Distribution: return "distribution";
      case MetricKind::Gauge: return "gauge";
      case MetricKind::Formula: return "formula";
    }
    return "?";
}

// ---------------------------------------------------------------------
// MetricSet
// ---------------------------------------------------------------------

double
MetricSet::at(const std::string &key) const
{
    auto it = map_.find(key);
    if (it != map_.end())
        return it->second;
    std::vector<std::string> names;
    names.reserve(map_.size());
    for (const auto &[k, v] : map_)
        names.push_back(k);
    throw MetricError("unknown metric key '" + key + "'"
                      + suggestHint(key, names));
}

double
MetricSet::get(const std::string &key, double dflt) const
{
    auto it = map_.find(key);
    return it == map_.end() ? dflt : it->second;
}

namespace {

/** Glob match of one @p pattern against @p key. */
bool
globMatch(const std::string &pattern, const std::string &key)
{
    // Iterative glob with single-star backtracking: '*' matches any
    // run of characters (dots included, so "dmu.*" covers the whole
    // subtree), '?' any single character.
    std::size_t p = 0, k = 0;
    std::size_t starP = std::string::npos, starK = 0;
    while (k < key.size()) {
        if (p < pattern.size()
            && (pattern[p] == '?' || pattern[p] == key[k])) {
            ++p;
            ++k;
        } else if (p < pattern.size() && pattern[p] == '*') {
            starP = p++;
            starK = k;
        } else if (starP != std::string::npos) {
            p = starP + 1;
            k = ++starK;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

} // namespace

MetricSelection::MetricSelection(const std::string &patterns)
{
    if (patterns.empty())
        return;
    std::size_t pos = 0;
    for (;;) {
        const std::size_t next = patterns.find(',', pos);
        std::string tok = patterns.substr(pos, next - pos);
        const std::size_t a = tok.find_first_not_of(" \t");
        const std::size_t b = tok.find_last_not_of(" \t");
        tok = a == std::string::npos ? "" : tok.substr(a, b - a + 1);
        if (tok.empty())
            throw MetricError("empty glob in metric selection '"
                              + patterns + "'");
        globs_.push_back(std::move(tok));
        if (next == std::string::npos)
            break;
        pos = next + 1;
    }
}

bool
MetricSelection::matches(const std::string &key) const
{
    if (globs_.empty())
        return true;
    for (const std::string &g : globs_)
        if (globMatch(g, key))
            return true;
    return false;
}

// ---------------------------------------------------------------------
// MetricContext
// ---------------------------------------------------------------------

MetricContext
MetricContext::scope(const std::string &name) const
{
    return MetricContext(reg_, join(name));
}

std::string
MetricContext::join(const std::string &name) const
{
    if (prefix_.empty())
        return name;
    if (name.empty())
        return prefix_;
    return prefix_ + "." + name;
}

void
MetricContext::counter(const std::string &name, const std::uint64_t *v,
                       const std::string &desc)
{
    MetricRegistry::Entry e;
    e.kind = MetricKind::Counter;
    e.u64 = v;
    e.desc = desc;
    reg_->add(join(name), std::move(e));
}

void
MetricContext::counterFn(const std::string &name,
                         std::function<double()> fn,
                         const std::string &desc)
{
    MetricRegistry::Entry e;
    e.kind = MetricKind::Counter;
    e.fn = std::move(fn);
    e.desc = desc;
    reg_->add(join(name), std::move(e));
}

void
MetricContext::average(const std::string &name, const Average *a,
                       const std::string &desc)
{
    MetricRegistry::Entry e;
    e.kind = MetricKind::Average;
    e.avg = a;
    e.desc = desc;
    reg_->add(join(name), std::move(e));
}

void
MetricContext::distribution(const std::string &name,
                            const Distribution *d,
                            const std::string &desc)
{
    MetricRegistry::Entry e;
    e.kind = MetricKind::Distribution;
    e.dist = d;
    e.desc = desc;
    reg_->add(join(name), std::move(e));
}

void
MetricContext::gauge(const std::string &name, std::function<double()> fn,
                     const std::string &desc)
{
    MetricRegistry::Entry e;
    e.kind = MetricKind::Gauge;
    e.fn = std::move(fn);
    e.desc = desc;
    reg_->add(join(name), std::move(e));
}

void
MetricContext::formulaFn(const std::string &name,
                         std::function<double()> fn,
                         const std::string &desc)
{
    MetricRegistry::Entry e;
    e.kind = MetricKind::Formula;
    e.fn = std::move(fn);
    e.desc = desc;
    reg_->add(join(name), std::move(e));
}

// ---------------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------------

MetricContext
MetricRegistry::context(const std::string &scope)
{
    return MetricContext(this, scope);
}

void
MetricRegistry::add(const std::string &key, Entry e)
{
    if (key.empty())
        throw MetricError("metric registered with an empty key");
    if (map_.count(key))
        throw MetricError("metric key '" + key
                          + "' registered twice");
    map_.emplace(key, std::move(e));
}

void
MetricRegistry::throwUnknown(const std::string &key) const
{
    throw MetricError("unknown metric key '" + key + "'"
                      + suggestHint(key, keys()));
}

bool
MetricRegistry::contains(const std::string &key) const
{
    return map_.count(key) != 0;
}

double
MetricRegistry::valueOf(const Entry &e) const
{
    switch (e.kind) {
      case MetricKind::Counter:
        return e.u64 ? static_cast<double>(*e.u64) : e.fn();
      case MetricKind::Average:
        return e.avg->mean();
      case MetricKind::Distribution:
        return e.dist->mean();
      case MetricKind::Gauge:
        return e.fn();
      case MetricKind::Formula:
        return e.fn();
    }
    return 0.0;
}

double
MetricRegistry::value(const std::string &key) const
{
    auto it = map_.find(key);
    if (it == map_.end())
        throwUnknown(key);
    return valueOf(it->second);
}

std::vector<std::string>
MetricRegistry::keys() const
{
    std::vector<std::string> out;
    out.reserve(map_.size());
    for (const auto &[k, e] : map_)
        out.push_back(k);
    return out;
}

std::vector<MetricInfo>
MetricRegistry::list() const
{
    std::vector<MetricInfo> out;
    out.reserve(map_.size());
    for (const auto &[k, e] : map_)
        out.push_back(MetricInfo{k, e.kind, e.desc});
    return out;
}

void
MetricRegistry::flattenInto(MetricSet &out, const std::string &key,
                            const Entry &e) const
{
    switch (e.kind) {
      case MetricKind::Counter:
      case MetricKind::Gauge:
      case MetricKind::Formula:
        out.set(key, valueOf(e));
        break;
      case MetricKind::Average:
        out.set(key, e.avg->mean());
        out.set(key + ".count", static_cast<double>(e.avg->count()));
        break;
      case MetricKind::Distribution: {
        const Distribution *d = e.dist;
        out.set(key + ".mean", d->mean());
        out.set(key + ".stdev", d->stdev());
        out.set(key + ".min", d->minSample());
        out.set(key + ".max", d->maxSample());
        out.set(key + ".count", static_cast<double>(d->count()));
        out.set(key + ".underflow",
                static_cast<double>(d->underflow()));
        out.set(key + ".overflow", static_cast<double>(d->overflow()));
        break;
      }
    }
}

MetricSet
MetricRegistry::values() const
{
    MetricSet out;
    for (const auto &[k, e] : map_)
        flattenInto(out, k, e);
    return out;
}

std::vector<double>
MetricRegistry::stateOf(const Entry &e) const
{
    switch (e.kind) {
      case MetricKind::Counter:
        return {valueOf(e)};
      case MetricKind::Average:
        return {e.avg->sum(), static_cast<double>(e.avg->count())};
      case MetricKind::Distribution:
        return {e.dist->sum(), static_cast<double>(e.dist->count())};
      case MetricKind::Gauge:
      case MetricKind::Formula:
        return {};
    }
    return {};
}

MetricSnapshot
MetricRegistry::snapshot() const
{
    MetricSnapshot snap;
    for (const auto &[k, e] : map_) {
        std::vector<double> st = stateOf(e);
        if (!st.empty())
            snap.state_.emplace(k, std::move(st));
    }
    return snap;
}

MetricSet
MetricRegistry::window(const MetricSnapshot &from,
                       const MetricSnapshot &to) const
{
    MetricSet out;
    for (const auto &[k, s1] : to.state_) {
        auto it = map_.find(k);
        if (it == map_.end())
            continue; // snapshot from another registry; be lenient
        auto it0 = from.state_.find(k);
        static const std::vector<double> zeros(2, 0.0);
        const std::vector<double> &s0 =
            it0 != from.state_.end() ? it0->second : zeros;
        switch (it->second.kind) {
          case MetricKind::Counter:
            out.set(k, s1[0] - (s0.empty() ? 0.0 : s0[0]));
            break;
          case MetricKind::Average: {
            const double dsum = s1[0] - s0[0];
            const double dcnt = s1[1] - (s0.size() > 1 ? s0[1] : 0.0);
            out.set(k, dcnt > 0.0 ? dsum / dcnt : 0.0);
            break;
          }
          case MetricKind::Distribution: {
            const double dsum = s1[0] - s0[0];
            const double dcnt = s1[1] - (s0.size() > 1 ? s0[1] : 0.0);
            out.set(k + ".mean", dcnt > 0.0 ? dsum / dcnt : 0.0);
            out.set(k + ".count", dcnt);
            break;
          }
          case MetricKind::Gauge:
          case MetricKind::Formula:
            break;
        }
    }
    return out;
}

void
MetricRegistry::dump(std::ostream &os) const
{
    MetricSet flat;
    for (const auto &[k, e] : map_)
        flattenInto(flat, k, e);
    for (const auto &[k, v] : flat.entries()) {
        // Shortest round-trip form, so exact tick counts keep every
        // digit (a stream prints 6 significant digits).
        char buf[32];
        const char *end = std::to_chars(buf, buf + sizeof buf, v).ptr;
        os << k << ' ' << std::string_view(buf, end - buf);
        auto it = map_.find(k);
        // Subkeys (.mean, .count, ...) inherit the metric's kind but
        // carry no description of their own.
        if (it != map_.end() && !it->second.desc.empty())
            os << " # " << it->second.desc;
        else if (it == map_.end()) {
            const std::size_t dot = k.rfind('.');
            auto parent = dot == std::string::npos
                              ? map_.end()
                              : map_.find(k.substr(0, dot));
            if (parent != map_.end() && k.substr(dot + 1) == "mean"
                && !parent->second.desc.empty())
                os << " # " << parent->second.desc;
        }
        os << '\n';
    }
}

} // namespace tdm::sim
