/**
 * @file
 * Result bookkeeping for the benchmark: named metrics with units,
 * exact simulated counts, output checks, the percentile rule and the
 * in-memory span recorder of the traced run.
 *
 * Everything here is single-threaded: the benchmark records metrics
 * and spans only from its own (main) thread, around calls into the
 * simulator's public API.
 */

#ifndef EDB_PERFBENCH_REPORT_HH
#define EDB_PERFBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace edb::perfbench {

/** Metric and count names: `[A-Za-z0-9_.-]+`. */
bool validName(const std::string &name);

/** Seconds on the steady clock since the first call. */
double nowSeconds();

/**
 * Samples of one timing. A percentile `q` is reported only when at
 * least ten samples lie beyond it, on the tail side: floor(n * (1 - q))
 * >= 10 for q >= 0.5 and floor(n * q) >= 10 below. The value is the
 * nearest-rank sample of the sorted set.
 */
class Samples
{
  public:
    void add(double v) { values.push_back(v); }
    std::size_t n() const { return values.size(); }
    bool empty() const { return values.empty(); }
    double sum() const;
    double mean() const { return empty() ? 0.0 : sum() / n(); }

    /** Samples beyond percentile `q` on its tail side (q in (0, 1)). */
    static std::size_t beyond(std::size_t n, double q);
    /** Smallest sample count for which `q` may be reported. */
    static std::size_t needed(double q);

    /** The q-percentile, or nullopt when the rule above fails. */
    std::optional<double> percentile(double q) const;
    /** Median without the ten-beyond rule (small fixed sets). */
    double median() const { return quantile(0.5); }
    /** Linear-interpolated quantile without the ten-beyond rule. */
    double quantile(double q) const;

  private:
    std::vector<double> values;
};

/** One reported number. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    /** Samples behind the value (0 = a single measurement). */
    std::uint64_t n = 0;
    /** What a ratio or per-unit figure is taken over. */
    std::string base;
};

/** One output check. */
struct Check
{
    std::string name;
    bool ok = false;
    std::string detail;
};

/**
 * Span recorder for the traced run: name, start, end, parent and run
 * id per span, kept in memory and written out once at the end. When
 * disabled every call is a no-op.
 */
class Spans
{
  public:
    explicit Spans(bool enabled) : on(enabled) {}

    bool enabled() const { return on; }
    /** Pause or resume recording (tracing-overhead blocks). */
    void setPaused(bool p) { paused = p; }
    bool recording() const { return on && !paused; }

    /** Open a span nested in the innermost open one; returns its
     *  index (-1 when not recording). */
    int begin(const std::string &name, int run);
    void end(int index);
    /** Record a span with explicit bounds (spans that interleave
     *  with others, such as an RPC in flight across epochs). */
    void add(const std::string &name, double start, double end,
             int parent, int run);

    /** RAII scope around begin/end. */
    class Scope
    {
      public:
        Scope(Spans &s, const std::string &name, int run)
            : spans(s), index(s.begin(name, run))
        {}
        ~Scope() { spans.end(index); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &spans;
        int index;
    };

    std::size_t size() const { return list.size(); }

    /** Per span name: count, total and self milliseconds. */
    struct Summary
    {
        std::uint64_t count = 0;
        double totalMs = 0.0;
        double selfMs = 0.0;
    };
    std::map<std::string, Summary> summarize() const;

    /** Write every span as Chrome trace-event JSON ("X" events). */
    bool writeChrome(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
        int run = 0;
    };

    bool on;
    bool paused = false;
    std::vector<Span> list;
    std::vector<int> open;
};

/** Everything one benchmark run reports. */
class Report
{
  public:
    Report(std::string workload, std::uint64_t seed, bool traced)
        : workload_(std::move(workload)), seed_(seed), traced_(traced)
    {}

    /** Set a metric (names are checked against the grammar). */
    void metric(const std::string &name, double value,
                const std::string &unit, std::uint64_t n = 0,
                const std::string &base = "");
    /** Set a percentile metric from samples; false (and a failed
     *  check) when the ten-beyond rule is not met. */
    bool percentile(const std::string &name, const Samples &s,
                    double q, const std::string &unit,
                    const std::string &base = "");
    /** An exact simulated count (must repeat for a given seed). */
    void count(const std::string &name, std::uint64_t value);

    /** Record an output check; failures count as failed operations. */
    void check(const std::string &name, bool ok,
               const std::string &detail = "");
    /** Count operations attempted (steps, RPCs, analyses...). */
    void addAttempted(std::uint64_t n) { attempted_ += n; }
    /** Count operations that failed (non-ok replies, ...). */
    void addFailed(std::uint64_t n) { failed_ += n; }

    bool correct() const;
    std::uint64_t attempted() const { return attempted_; }
    double failRatio() const
    {
        return attempted_ ? static_cast<double>(failed_) / attempted_ : 0.0;
    }
    const std::map<std::string, Metric> &metrics() const
    {
        return metrics_;
    }

    /** Human-readable table followed by one `PERFBENCH_RECORD {...}`
     *  line with every metric, count, check and span summary. */
    void print(const Spans &spans) const;

  private:
    std::string workload_;
    std::uint64_t seed_;
    bool traced_;
    std::map<std::string, Metric> metrics_;
    std::map<std::string, std::uint64_t> counts_;
    std::vector<Check> checks_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Peak resident set size of this process, MiB. */
double peakRssMb();

} // namespace edb::perfbench

#endif // EDB_PERFBENCH_REPORT_HH
