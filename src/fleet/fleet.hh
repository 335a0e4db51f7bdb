/**
 * @file
 * Fleet orchestrator: thousands of deterministic tag worlds on a
 * work-stealing thread pool, coupled through a shared RF environment
 * (DESIGN.md §12).
 *
 * Execution model — *bounded epochs with a sequential barrier*:
 *
 *   1. plan:     (sequential, world-index order) each world stages
 *                its carrier window for the coming epoch — reader
 *                duty cycle minus any post-collision backoff;
 *   2. advance:  (parallel) the pool runs every world's local event
 *                loop up to the epoch barrier; a world is touched by
 *                exactly one worker and shares nothing mutable;
 *   3. resolve:  (sequential, world-index order) the slotted
 *                arbiter settles cross-world RF contention and
 *                feeds outcomes back into the worlds;
 *   4. balance:  every `rebalancePeriod` epochs the busiest world
 *                migrates — via a full snapshot round-trip — from
 *                the most- to the least-loaded shard.
 *
 * Determinism argument: every cross-world decision happens in the
 * sequential phases in a canonical order, from inputs (instruction
 * counts, hashes, derived seeds) that are themselves deterministic;
 * the parallel phase only advances disjoint worlds whose coupling
 * inputs were fixed at plan time. Migration relies on the PR 5
 * bit-identical-resume guarantee, so even shard-count-dependent
 * rebalancing cannot perturb any world's trajectory — per-world
 * digests are bit-identical at 1, 2 and N shards (pinned by
 * tests/test_fleet.cc).
 *
 * Seed derivation: world `i` simulates under
 * `sim::deriveSeed(fleetSeed, worldStream + i)`; the arbiter and the
 * distance distribution use their own derived streams. No world
 * shares an RNG with any other, and adding a world never shifts an
 * existing world's stream.
 */

#ifndef EDB_FLEET_FLEET_HH
#define EDB_FLEET_FLEET_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fleet/pool.hh"
#include "fleet/world.hh"
#include "rfid/channel.hh"
#include "sim/logging.hh"

namespace edb::fleet {

/** Per-world firmware + electrical overrides, produced by the
 *  firmware function for each world index. */
struct WorldFirmware
{
    /** Assembly listing (worlds sharing a listing share the
     *  assembled image). */
    std::string listing;
    /** Forced brown-out schedule (auditor sweeps; usually empty —
     *  fleet worlds brown out naturally from the RF model). */
    std::vector<fuzz::BrownOut> schedule;
    /** Hardware checkpoint unit enable. */
    bool checkpointing = true;
    /** Storage capacitor override (0 = keep the fleet default). */
    double capacitanceF = 0.0;
    /** Initial capacitor voltage override (< 0 = keep default). */
    double initialVolts = -1.0;
    /** This is a seeded-WAR mutant: watch `war_done`, require the
     *  auditor, and expect a violation once power fails after it. */
    bool warMutant = false;
};

/** Maps world index → firmware. */
using FirmwareFn = std::function<WorldFirmware(std::uint32_t)>;

/** Fleet-wide configuration. */
struct FleetConfig
{
    /** Number of tag worlds. */
    unsigned tags = 64;
    /** Worker threads (0 = run inline on the caller's thread). */
    unsigned threads = 0;
    /** Fleet seed; everything else derives from it. */
    std::uint64_t seed = 1;
    /** Epoch length (the determinism barrier period). */
    sim::Tick epochLength = 5 * sim::oneMs;
    /** Shared RF environment. */
    rfid::RfEnvConfig env = {};
    /** Base target configuration (per-world copies). */
    target::WispConfig wisp = {};
    /** Attach the WAR auditor to every world. */
    bool withAuditor = false;
    /** Epochs between shard rebalancing migrations (0 = off). */
    unsigned rebalancePeriod = 0;
};

/** Aggregate per-epoch channel statistics. */
struct ChannelStats
{
    std::uint64_t attempts = 0;
    std::uint64_t replies = 0;
    std::uint64_t collisions = 0;
};

/** See file header. */
class Fleet
{
  public:
    /**
     * @param firmware Firmware per world; default: every world runs
     *        the built-in checkpointing counter/buffer loop.
     */
    explicit Fleet(FleetConfig config, FirmwareFn firmware = {});

    /** Advance the whole fleet by `epochs` barrier periods. */
    void runEpochs(unsigned epochs);

    /// @name Inspection
    /// @{
    std::size_t size() const { return worlds.size(); }
    World &world(std::size_t i) { return *worlds[i]; }
    const World &world(std::size_t i) const { return *worlds[i]; }
    /** Per-world end-state digests (index order). */
    std::vector<WorldDigest> digests() const;
    /** Sum of instructions retired across all worlds. */
    std::uint64_t totalInstrs() const;
    std::uint64_t epochsRun() const { return epochIndex; }
    sim::Tick now() const { return clock; }
    std::uint64_t migrations() const { return migrations_; }
    const rfid::SlottedArbiter &arbiter() const { return arbiter_; }
    const WorkStealingPool &pool() const { return pool_; }
    const ChannelStats &channelStats() const { return chan; }
    /** Shared thread-safe sink all world loggers feed. */
    sim::AggregatingSink &logSink() { return sink_; }
    /** Current home shard of world `i` (migration moves it). */
    unsigned homeShardOf(std::size_t i) const { return homeShard[i]; }
    /** Assembled firmware image world `i` runs (shared across
     *  worlds with equal listings; used by the debug server's
     *  static-analysis commands). */
    const isa::Program &worldProgram(std::size_t i) const
    {
        return *worldImage[i];
    }
    /// @}

    /** The built-in throughput firmware (shared by all worlds). */
    static WorldFirmware defaultFirmware();

    /// @name Seed-derivation streams (documented contract)
    /// @{
    static constexpr std::uint64_t worldStream = 0x10000;
    static constexpr std::uint64_t arbiterStream = 1;
    static constexpr std::uint64_t distanceStream = 2;
    /// @}

  private:
    void buildWorlds(const FirmwareFn &firmware);
    void rebalance();

    FleetConfig cfg;
    WorkStealingPool pool_;
    rfid::SlottedArbiter arbiter_;
    sim::AggregatingSink sink_;

    /** Assembled images, shared across worlds with equal listings. */
    std::map<std::string, isa::Program> images;
    std::vector<std::unique_ptr<World>> worlds;
    std::vector<WorldConfig> worldCfgs;
    std::vector<const isa::Program *> worldImage;
    std::vector<unsigned> homeShard;

    sim::Tick clock = 0;
    std::uint64_t epochIndex = 0;
    std::uint64_t migrations_ = 0;
    ChannelStats chan;

    /** Scratch reused each epoch (attempt gather). */
    std::vector<std::uint32_t> attemptIds;
    std::vector<std::size_t> attemptWorlds;
};

} // namespace edb::fleet

#endif // EDB_FLEET_FLEET_HH
