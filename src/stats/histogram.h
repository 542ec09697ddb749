/**
 * @file
 * Distribution: the histogram stat kind of the telemetry layer
 * (docs/TELEMETRY.md). A Distribution supports linear *and* log2
 * bucketing, tracks min/max/sum, answers percentile queries, and flattens
 * into schema-stable scalar summary entries for the JSON/CSV sinks.
 */

#ifndef UDP_STATS_HISTOGRAM_H
#define UDP_STATS_HISTOGRAM_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace udp {

/** Bucketing rule of a Distribution. */
enum class BucketScale : std::uint8_t {
    /** Bucket i covers [i*width, (i+1)*width); the last bucket overflows. */
    Linear,
    /** Bucket 0 holds value 0; bucket i>=1 covers [2^(i-1), 2^i); the
     *  last bucket overflows. Right-sized for cycle latencies. */
    Log2,
};

/**
 * Histogram over unsigned sample values with either linear or logarithmic
 * buckets. Cheap to sample (one array increment plus running sum/min/max),
 * mergeable across instances, and summarizable into scalar stats.
 */
class Distribution
{
  public:
    explicit Distribution(BucketScale scale = BucketScale::Log2,
                          std::size_t num_buckets = 32,
                          std::uint64_t bucket_width = 1)
        : scale_(scale),
          width_(bucket_width == 0 ? 1 : bucket_width),
          buckets_(num_buckets == 0 ? 1 : num_buckets, 0)
    {
    }

    void
    sample(std::uint64_t v)
    {
        ++buckets_[bucketOf(v)];
        sum_ += v;
        ++n_;
        if (n_ == 1 || v < min_) {
            min_ = v;
        }
        if (v > max_) {
            max_ = v;
        }
    }

    std::uint64_t count() const { return n_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return n_ == 0 ? 0 : min_; }
    std::uint64_t max() const { return max_; }
    double
    mean() const
    {
        return n_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(n_);
    }

    BucketScale scale() const { return scale_; }
    std::size_t numBuckets() const { return buckets_.size(); }
    std::uint64_t bucketCount(std::size_t i) const { return buckets_.at(i); }

    /** Index of the bucket @p v falls into. */
    std::size_t
    bucketOf(std::uint64_t v) const
    {
        std::size_t idx;
        if (scale_ == BucketScale::Linear) {
            idx = static_cast<std::size_t>(v / width_);
        } else {
            idx = 0;
            while (v != 0) {
                ++idx;
                v >>= 1;
            }
        }
        return idx >= buckets_.size() ? buckets_.size() - 1 : idx;
    }

    /** Lowest sample value that lands in bucket @p i. */
    std::uint64_t
    bucketLow(std::size_t i) const
    {
        if (scale_ == BucketScale::Linear) {
            return static_cast<std::uint64_t>(i) * width_;
        }
        return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
    }

    /**
     * Smallest bucket lower bound b such that at least fraction @p q of
     * samples fall into buckets at or below b's bucket. Bucket-resolution
     * (exact for linear width 1); 0 when empty.
     */
    std::uint64_t
    percentile(double q) const
    {
        if (n_ == 0) {
            return 0;
        }
        if (q < 0.0) {
            q = 0.0;
        }
        if (q > 1.0) {
            q = 1.0;
        }
        auto need = static_cast<std::uint64_t>(q * static_cast<double>(n_));
        if (need == 0) {
            need = 1;
        }
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < buckets_.size(); ++i) {
            acc += buckets_[i];
            if (acc >= need) {
                return bucketLow(i);
            }
        }
        return bucketLow(buckets_.size() - 1);
    }

    /** Merges @p other (same scale/geometry expected) into this. */
    void merge(const Distribution& other);

    void clear();

    /**
     * Schema-stable scalar summary: "<prefix>_count", "_sum", "_mean",
     * "_min", "_max", "_p50", "_p90", "_p99" (docs/TELEMETRY.md). The
     * StatSet kind integration (StatSet::addDistribution) appends these.
     */
    std::vector<std::pair<std::string, double>>
    summarize(const std::string& prefix) const;

    /** Human-readable multi-line bucket rendering (debug prints). */
    std::string toString(const std::string& name) const;

  private:
    BucketScale scale_;
    std::uint64_t width_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t sum_ = 0;
    std::uint64_t n_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

} // namespace udp

#endif // UDP_STATS_HISTOGRAM_H
