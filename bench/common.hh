/**
 * @file
 * Shared rig setup and table-printing helpers for the benchmark
 * harnesses. Each bench binary regenerates one table or figure from
 * the paper's evaluation (Section 5); see DESIGN.md for the index
 * and EXPERIMENTS.md for recorded results.
 */

#ifndef EDB_BENCH_COMMON_HH
#define EDB_BENCH_COMMON_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "edb/board.hh"
#include "energy/harvester.hh"
#include "mcu/mcu.hh"
#include "rfid/channel.hh"
#include "rfid/reader.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"
#include "trace/stats.hh"

namespace edb::bench {

/** Standard experimental rig: WISP on RF power with EDB attached. */
struct Rig
{
    sim::Simulator sim;
    energy::RfHarvester rf;
    std::unique_ptr<rfid::RfChannel> channel;
    std::unique_ptr<rfid::RfidReader> reader;
    target::Wisp wisp;
    edbdbg::EdbBoard board;

    /**
     * @param seed RNG seed.
     * @param tx_dbm Reader transmit power (paper: 30 dBm).
     * @param distance_m Reader distance (paper: 1 m).
     * @param with_rfid Instantiate the air interface + reader.
     */
    explicit Rig(std::uint64_t seed = 1, double tx_dbm = 30.0,
                 double distance_m = 1.0, bool with_rfid = false,
                 edbdbg::EdbConfig edb_config = {},
                 target::WispConfig wisp_config = {})
        : sim(seed),
          rf(tx_dbm, distance_m),
          channel(with_rfid ? std::make_unique<rfid::RfChannel>(
                                  sim, "channel")
                            : nullptr),
          reader(with_rfid ? std::make_unique<rfid::RfidReader>(
                                 sim, "reader", *channel)
                           : nullptr),
          wisp(sim, "wisp", &rf, channel.get(), wisp_config),
          board(sim, "edb", wisp, channel.get(), edb_config)
    {}
};

/**
 * Shared command-line parsing for the soak/fuzz harnesses:
 * `--name value` pairs, bare `--flag` switches, and one optional
 * bare integer (the legacy positional episode/plan count).
 */
class Cli
{
  public:
    Cli(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.size() > 2 && arg.compare(0, 2, "--") == 0) {
                std::string name = arg.substr(2);
                if (i + 1 < argc && argv[i + 1][0] != '-')
                    options[name] = argv[++i];
                else
                    options[name] = "";
            } else {
                positional_ = std::atoll(arg.c_str());
            }
        }
    }

    bool has(const std::string &name) const
    {
        return options.count(name) != 0;
    }

    long long
    intOption(const std::string &name, long long fallback) const
    {
        auto it = options.find(name);
        if (it == options.end() || it->second.empty())
            return fallback;
        return std::atoll(it->second.c_str());
    }

    std::string
    strOption(const std::string &name,
              const std::string &fallback = "") const
    {
        auto it = options.find(name);
        return it == options.end() ? fallback : it->second;
    }

    /** The bare positional integer, `fallback` when absent. */
    long long
    positional(long long fallback) const
    {
        return positional_.value_or(fallback);
    }

    /** `--name N`, falling back to the bare positional integer. */
    long long
    count(const std::string &name, long long fallback) const
    {
        return intOption(name, positional(fallback));
    }

  private:
    std::map<std::string, std::string> options;
    std::optional<long long> positional_;
};

/**
 * Minimal JSON object builder for the machine-readable summary each
 * harness prints as its last line (CI log scrapers key on it).
 */
class Json
{
  public:
    Json &
    field(const std::string &key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }

    Json &
    field(const std::string &key, long long v)
    {
        return raw(key, std::to_string(v));
    }

    Json &
    field(const std::string &key, int v)
    {
        return raw(key, std::to_string(v));
    }

    Json &
    field(const std::string &key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }

    Json &
    field(const std::string &key, double v)
    {
        std::ostringstream s;
        s.precision(17);
        s << v;
        return raw(key, s.str());
    }

    Json &
    field(const std::string &key, const std::string &v)
    {
        std::string quoted = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\')
                quoted += '\\';
            quoted += c;
        }
        quoted += '"';
        return raw(key, quoted);
    }

    /** Nested object. */
    Json &
    object(const std::string &key, const Json &sub)
    {
        return raw(key, sub.str());
    }

    std::string str() const { return "{" + body + "}"; }

    /** Print as the final summary line. */
    void print() const { std::printf("\n%s\n", str().c_str()); }

  private:
    Json &
    raw(const std::string &key, const std::string &v)
    {
        if (!body.empty())
            body += ", ";
        body += "\"" + key + "\": " + v;
        return *this;
    }

    std::string body;
};

/// @name Uniform run-shape options
/// Every soak/fuzz harness accepts `--threads N` (worker threads; 0
/// = inline) and `--tags N` (world count, where the harness
/// simulates more than one), and echoes both in its JSON summary
/// so a recorded run is reproducible from the summary line alone.
/// @{
inline unsigned
threadsOption(const Cli &cli)
{
    long long t = cli.intOption("threads", 0);
    return t < 0 ? 0u : static_cast<unsigned>(t);
}

inline unsigned
tagsOption(const Cli &cli, unsigned fallback = 1)
{
    long long t = cli.intOption("tags", fallback);
    return t < 1 ? 1u : static_cast<unsigned>(t);
}

/** Standard run-shape fields for a JSON summary. */
inline Json &
runConfigFields(Json &j, const Cli &cli, unsigned default_tags = 1)
{
    j.field("threads", static_cast<std::uint64_t>(threadsOption(cli)))
        .field("tags",
               static_cast<std::uint64_t>(tagsOption(cli, default_tags)));
    return j;
}
/// @}

/**
 * Sample distribution for per-world reporting: fleets and soaks run
 * many independent worlds, and an aggregate sum hides the spread, so
 * summaries report min/mean/max and tail percentiles instead of (or
 * alongside) totals.
 */
class Distribution
{
  public:
    void add(double v) { samples.push_back(v); }

    std::size_t n() const { return samples.size(); }

    double
    sum() const
    {
        double s = 0.0;
        for (double v : samples)
            s += v;
        return s;
    }

    double mean() const { return samples.empty() ? 0.0 : sum() / n(); }

    /** q in [0, 1]; nearest-rank on the sorted samples. */
    double
    percentile(double q) const
    {
        if (samples.empty())
            return 0.0;
        std::vector<double> s = samples;
        std::sort(s.begin(), s.end());
        double idx = q * static_cast<double>(s.size() - 1);
        return s[static_cast<std::size_t>(idx + 0.5)];
    }

    double min() const { return percentile(0.0); }
    double max() const { return percentile(1.0); }

    Json
    json() const
    {
        Json j;
        j.field("n", static_cast<std::uint64_t>(n()))
            .field("min", min())
            .field("mean", mean())
            .field("p50", percentile(0.5))
            .field("p90", percentile(0.9))
            .field("max", max());
        return j;
    }

  private:
    std::vector<double> samples;
};

/** Section banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

/** Sub-banner. */
inline void
note(const std::string &text)
{
    std::printf("--- %s\n", text.c_str());
}

} // namespace edb::bench

#endif // EDB_BENCH_COMMON_HH
