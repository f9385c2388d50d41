#include "sim/stats.hh"

#include <cmath>

#include "sim/logging.hh"

namespace tdm::sim {

Distribution::Distribution(double lo, double hi, unsigned buckets)
{
    init(lo, hi, buckets);
}

void
Distribution::init(double lo, double hi, unsigned buckets)
{
    if (hi <= lo)
        panic("Distribution: hi <= lo (", hi, " <= ", lo, ")");
    if (buckets == 0)
        panic("Distribution: zero buckets");
    lo_ = lo;
    hi_ = hi;
    width_ = (hi - lo) / buckets;
    buckets_.assign(buckets, 0);
    reset();
}

void
Distribution::sample(double v)
{
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        if (v < min_) min_ = v;
        if (v > max_) max_ = v;
    }
    sum_ += v;
    sumSq_ += v * v;
    ++count_;
    if (v < lo_) {
        ++underflow_;
    } else if (v >= hi_) {
        ++overflow_;
    } else {
        auto idx = static_cast<std::size_t>((v - lo_) / width_);
        if (idx >= buckets_.size())
            idx = buckets_.size() - 1;
        ++buckets_[idx];
    }
}

double
Distribution::stdev() const
{
    if (count_ < 2)
        return 0.0;
    double n = static_cast<double>(count_);
    double var = (sumSq_ - sum_ * sum_ / n) / (n - 1);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

void
Distribution::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    underflow_ = overflow_ = 0;
    sum_ = sumSq_ = 0.0;
    min_ = max_ = 0.0;
    count_ = 0;
}

} // namespace tdm::sim
