/**
 * @file
 * Shared pieces of the four workloads: run options, the timed loop,
 * exact simulated counts, device digests, the engine ablation rows and
 * the standalone per-layer probes every workload reports (analog
 * advance, assembler, analyzer).
 */

#ifndef EDB_PERFBENCH_WORKLOAD_HH
#define EDB_PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "energy/harvester.hh"
#include "isa/program.hh"
#include "report.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"

namespace edb::perfbench {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Chrome trace-event output of the traced run ("" = none). */
    std::string traceOut;
};

/** What a workload function gets. */
struct Run
{
    const Options &opt;
    Report &rep;
    Spans &spans;
};

/** Cumulative simulated work, read at block boundaries. */
struct Progress
{
    std::uint64_t instrs = 0;
    /** Simulated world-milliseconds, summed over worlds. */
    double worldMs = 0.0;
};

/** Host timings of the timed loop. */
struct LoopResult
{
    /** Every step, milliseconds. */
    Samples stepMs;
    /** Rates over consecutive blocks of `seconds / rateBlocks`. */
    Samples instrRate;
    Samples simMsRate;
    /** Host seconds of each set-up copy made during the loop. */
    Samples setupS;
    /** Traced run only: steps timed with spans on / off. */
    Samples tracedMs;
    Samples untracedMs;
    std::uint64_t steps = 0;
    double seconds = 0.0;
};

/** Rate blocks per run: enough for a 10th percentile (100 needed). */
constexpr unsigned rateBlocks = 128;
/** Set-up batches spread over a run, and set-ups per batch: 110
 *  set-ups, enough for a 90th percentile (100 needed). */
constexpr unsigned setupBatches = 10;
constexpr unsigned setupsPerBatch = 11;

/**
 * Run `step(i)` for i = 0, 1, ... until `seconds` of host time have
 * passed, at least `min_steps` steps and `rateBlocks` blocks ran, and
 * (when `setup` is given) every set-up batch was made; times each step
 * and reads `progress()` every `seconds / rateBlocks` of host time for
 * the block rates. Every `seconds / setupBatches`, at a block
 * boundary, it calls `setup()` `setupsPerBatch` times; each call makes
 * and discards one set-up copy and returns its host seconds. Set-up
 * time counts neither in a step nor in a block. In a traced run each
 * step is a span named `span`, and recording is switched off for every
 * other block of 16 steps so the two halves give the tracing overhead.
 */
LoopResult timedLoop(Run &run, const std::string &span, double seconds,
                     std::uint64_t min_steps,
                     const std::function<void(std::uint64_t)> &step,
                     const std::function<Progress()> &progress,
                     const std::function<double()> &setup);

/**
 * Report the end-to-end metrics every workload shares. Rates are the
 * sustained rate: the 10th percentile of the block rates; `setup_s` is
 * the 90th percentile of the set-ups spread over the loop. A host core
 * here alternates for seconds at a time between two speeds about 1.5x
 * apart; the share of time spent in each differs from run to run, so a
 * median lands in either mode, while the slow tail stays in the slower
 * mode and repeats. Set-ups made back to back all land in one mode;
 * spread over the run, their slow tail is found. Returns the `setup_s`
 * value (0 when too few set-ups ran).
 */
double reportLoop(Run &run, const LoopResult &loop,
                  const std::string &step_base,
                  const std::string &setup_base);

/** Exact simulated counts, summed over worlds. */
struct Counts
{
    std::uint64_t instrs = 0;
    std::uint64_t cycles = 0;
    std::uint64_t reboots = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t restores = 0;
    std::uint64_t boots = 0;
    std::uint64_t brownouts = 0;
    std::uint64_t framWrites = 0;
    std::uint64_t sramWrites = 0;
    std::uint64_t sbBlockInstrs = 0;
    std::uint64_t sbBailouts = 0;
    std::uint64_t sbFallbacks = 0;
    std::uint64_t sbRebuilds = 0;
    /** Simulated world time, nanoseconds (summed over worlds). */
    std::uint64_t worldNs = 0;

    void add(const target::Wisp &wisp, sim::Tick now);
    /** `sim.*` counts in the record. */
    void record(Report &rep) const;
    /** The simulated mcu / energy / mem per-layer metrics. */
    void layerMetrics(Report &rep) const;
    double worldSeconds() const { return worldNs * 1e-9; }
};

/** Architectural digest of one device (World::digest's recipe). */
std::uint32_t digestOf(const target::Wisp &wisp,
                       const sim::Simulator &sim);

/** Fold a digest into a running one (order-sensitive). */
std::uint32_t foldDigest(std::uint32_t acc, std::uint32_t d);

/** Execution-engine ablation rows. */
enum class Row
{
    Default,   ///< The shipped configuration.
    NoiseFree, ///< Harvest-noise sigma 0.
    FastPath,  ///< Superblock tier off.
    Reference, ///< Every fast-path mechanism off.
};
const char *rowName(Row row);
target::WispConfig applyRow(Row row, target::WispConfig config);

/**
 * Ablation: `measure(row)` runs a fresh copy of the workload over a
 * fixed simulated window and returns {host seconds, instructions}.
 * Rows alternate over `reps` rounds; the medians give
 * `mcu.ns_per_instr.*` and `energy.noise_ns_per_instr`. Rows whose
 * trajectory must equal the default one (`same_instrs`) are checked
 * for an identical instruction count.
 */
struct RowResult
{
    double seconds = 0.0;
    std::uint64_t instrs = 0;
};
void ablation(Run &run, unsigned reps, const std::vector<Row> &same_instrs,
              const std::function<RowResult(Row)> &measure);

/**
 * Standalone per-layer probes on the workload's own inputs:
 * `energy.advance_ns_per_sim_us.{on,off}` with `harvester`,
 * `isa.assemble_ms` and `analysis.*` over `listings`, with the cost
 * model taken from `wisp`.
 */
void layerProbes(Run &run, const energy::Harvester &harvester,
                 const target::Wisp &wisp,
                 const std::vector<std::string> &listings);

/** Median of `reps` timings of `fn`, seconds. */
double medianSeconds(unsigned reps, const std::function<void()> &fn);

/// @name Workloads
/// @{
void runContinuous(Run &run);
void runIntermittent(Run &run);
void runFleet(Run &run);
void runDebugServer(Run &run);
/// @}

} // namespace edb::perfbench

#endif // EDB_PERFBENCH_WORKLOAD_HH
