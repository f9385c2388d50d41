/**
 * @file
 * Statistic value types, loosely modelled on gem5's: Scalar (counter /
 * accumulator), Average (mean of samples), Distribution (fixed-width
 * histogram plus moments), and Formula (lazily evaluated function of
 * other stats). Components own these values and register them by name
 * with the metric registry (sim/metrics.hh).
 */

#ifndef TDM_SIM_STATS_HH
#define TDM_SIM_STATS_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace tdm::sim {

/** A named scalar accumulator. */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator++() { value_ += 1.0; return *this; }
    void set(double v) { value_ = v; }
    double value() const { return value_; }
    void reset() { value_ = 0.0; }

  private:
    double value_ = 0.0;
};

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

/** Lazily evaluated stat computed from other stats. */
class Formula
{
  public:
    Formula() = default;
    explicit Formula(std::function<double()> fn) : fn_(std::move(fn)) {}

    void define(std::function<double()> fn) { fn_ = std::move(fn); }
    double value() const { return fn_ ? fn_() : 0.0; }

  private:
    std::function<double()> fn_;
};

} // namespace tdm::sim

#endif // TDM_SIM_STATS_HH
