/**
 * @file
 * Sampled statistic value types, loosely modelled on gem5's: Average
 * (mean of samples) and Distribution (moments, extremes and out-of-range
 * counts). Components own these values and register them by name with
 * the metric registry (sim/metrics.hh); counters are plain uint64
 * members and formulas are functions.
 */

#ifndef TDM_SIM_STATS_HH
#define TDM_SIM_STATS_HH

#include <cstdint>

namespace tdm::sim {

/** Mean of a stream of samples. */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
    }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * Mean/stdev and extremes of a stream of samples, counting the samples
 * below (underflow) and at or above (overflow) the range [lo, hi).
 */
class Distribution
{
  public:
    Distribution(double lo, double hi);

    void sample(double v);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double stdev() const;
    double minSample() const { return min_; }
    double maxSample() const { return max_; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }

  private:
    double lo_, hi_;
    std::uint64_t underflow_ = 0, overflow_ = 0;
    double sum_ = 0.0, sumSq_ = 0.0;
    double min_ = 0.0, max_ = 0.0;
    std::uint64_t count_ = 0;
};

} // namespace tdm::sim

#endif // TDM_SIM_STATS_HH
