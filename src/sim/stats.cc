#include "sim/stats.hh"

#include <cmath>

#include "sim/logging.hh"

namespace tdm::sim {

Distribution::Distribution(double lo, double hi) : lo_(lo), hi_(hi)
{
    if (hi <= lo)
        panic("Distribution: hi <= lo (", hi, " <= ", lo, ")");
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
    if (v < lo_)
        ++underflow_;
    else if (v >= hi_)
        ++overflow_;
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

} // namespace tdm::sim
