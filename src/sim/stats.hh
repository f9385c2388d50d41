/**
 * @file
 * Sampled statistic value types, loosely modelled on gem5's: Average
 * (mean of samples) and Distribution (fixed-width histogram plus
 * moments). Components own these values and register them by name with
 * the metric registry (sim/metrics.hh); counters are plain uint64
 * members and formulas are functions.
 */

#ifndef TDM_SIM_STATS_HH
#define TDM_SIM_STATS_HH

#include <cstdint>
#include <vector>

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
    void reset() { sum_ = 0.0; count_ = 0; }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * Histogram over [min, max) with a fixed number of equal-width buckets,
 * tracking mean/stdev and underflow/overflow.
 */
class Distribution
{
  public:
    Distribution() : Distribution(0.0, 1.0, 8) {}

    Distribution(double lo, double hi, unsigned buckets);

    void init(double lo, double hi, unsigned buckets);
    void sample(double v);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double stdev() const;
    double minSample() const { return min_; }
    double maxSample() const { return max_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    void reset();

  private:
    double lo_ = 0.0, hi_ = 1.0, width_ = 1.0;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t underflow_ = 0, overflow_ = 0;
    double sum_ = 0.0, sumSq_ = 0.0;
    double min_ = 0.0, max_ = 0.0;
    std::uint64_t count_ = 0;
};

} // namespace tdm::sim

#endif // TDM_SIM_STATS_HH
