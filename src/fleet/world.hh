/**
 * @file
 * One world of a fleet: an isolated, deterministic simulation of a
 * single tag (Simulator + harvester + Wisp, optionally an NV auditor),
 * advanced in bounded epochs by the fleet's
 * thread pool.
 *
 * Isolation contract: between `planEpoch` (sequential, at the epoch
 * barrier) and the barrier's completion, a world is touched by
 * exactly one pool worker, and nothing a world owns is reachable
 * from any other world — its Simulator, RNG, logger, memories and
 * peripherals are all instance state. The only shared object is the
 * fleet's thread-safe log sink.
 *
 * Worlds are pausable and movable: `saveTo`/`adoptFrom` round-trip
 * the entire simulation through the PR 5 snapshot format, which is
 * what the fleet's shard rebalancer uses to migrate a world — the
 * continuation is bit-identical, so migration never perturbs
 * results (the determinism suite pins this).
 */

#ifndef EDB_FLEET_WORLD_HH
#define EDB_FLEET_WORLD_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "energy/harvester.hh"
#include "fuzz/generator.hh"
#include "mem/nv_audit.hh"
#include "rfid/channel.hh"
#include "sim/simulator.hh"
#include "sim/snapshot.hh"
#include "target/rig.hh"

namespace edb::fleet {

/** Per-world construction parameters (derived by the Fleet). */
struct WorldConfig
{
    /** Fleet-wide tag id (also the arbiter's identity). */
    std::uint32_t id = 0;
    /** Derived world seed (sim::deriveSeed(fleetSeed, id)). */
    std::uint64_t seed = 1;
    /** Reader transmit power seen by this tag. */
    double txPowerDbm = 30.0;
    /** This tag's distance to the reader. */
    double distanceM = 1.0;
    /** Carrier fraction lost to re-arbitration after a collision
     *  (RfEnvConfig::collisionBackoff, copied in by the fleet). */
    double collisionBackoff = 0.5;
    /** Target device configuration. */
    target::WispConfig wisp = {};
    /** Attach the WAR consistency auditor. */
    bool withAuditor = false;
    /** Forced brown-out schedule (auditor sweeps). */
    std::vector<fuzz::BrownOut> schedule;
    /** PC of the WAR gadget's completion label (0 = no watch).
     *  Subscribes a tracer, so such worlds run un-superblocked. */
    mem::Addr warDoneWatch = 0;
};

/** Architectural end-state digest, schedule- and migration-
 *  invariant (raw event-queue ids are deliberately excluded). */
struct WorldDigest
{
    std::uint32_t crc = 0;
    std::uint64_t instrs = 0;
    std::uint64_t reboots = 0;

    bool operator==(const WorldDigest &) const = default;
};

/** See file header. */
class World
{
  public:
    World(const isa::Program &program, const WorldConfig &config);

    /** Begin execution (not for worlds about to adopt a snapshot). */
    void start();

    /**
     * Sequential barrier phase: stage the next epoch. Sets the
     * carrier window for [epoch_start, epoch_end) — the fraction of
     * the epoch the reader illuminates this tag (duty cycle minus
     * any post-collision backoff).
     */
    void planEpoch(sim::Tick epoch_start, sim::Tick epoch_end,
                   double carrier_fraction);

    /** Worker-thread phase: run the local event loop to the barrier. */
    void advanceTo(sim::Tick epoch_end);

    /** Did the tag retire instructions this epoch (reply attempt)? */
    bool attemptedUplink() const;

    /** Barrier feedback from the arbiter. */
    void noteOutcome(rfid::SlotOutcome outcome);

    /// @name Migration (snapshot-based; see file header)
    /// @{
    void saveTo(sim::SnapshotWriter &w) const;
    /** Adopt `other`'s full state; call on a fresh, un-started
     *  world built from the same program and config.
     *  @return false when the snapshot round-trip failed. */
    bool adoptFrom(const World &other);
    /// @}

    /** Architectural end-state digest. */
    WorldDigest digest() const;

    /// @name Accessors
    /// @{
    const WorldConfig &config() const { return cfg; }
    sim::Simulator &simulator() { return sim; }
    target::Wisp &wisp() { return *wisp_; }
    const target::Wisp &wisp() const { return *wisp_; }
    mem::NvAuditor *auditor() { return aud.get(); }
    const mem::NvAuditor *auditor() const { return aud.get(); }
    /// @}

    /// @name Fleet-visible statistics
    /// @{
    std::uint64_t instrCount() const;
    std::uint64_t instrsThisEpoch() const;
    std::uint64_t repliesWon() const { return replies; }
    std::uint64_t collisionsSeen() const { return collided; }
    std::uint64_t attemptsMade() const { return attempts; }
    /** Power losses observed after the WAR gadget completed. */
    std::uint64_t lossesAfterGadget() const { return gadget.losses(); }
    /// @}

  private:
    /** Snapshot field list (DESIGN.md section 8.1). */
    template <class Ar> void fields(Ar &a);

    WorldConfig cfg;
    sim::Simulator sim;
    energy::RfHarvester harvester;
    std::unique_ptr<target::Wisp> wisp_;
    std::unique_ptr<mem::NvAuditor> aud;
    target::BrownOutSchedule brownOuts;
    target::GadgetWatch gadget;

    sim::Tick epochStart = 0;
    std::uint64_t instrsAtEpochStart = 0;
    bool backoff = false;

    std::uint64_t replies = 0;
    std::uint64_t collided = 0;
    std::uint64_t attempts = 0;
};

} // namespace edb::fleet

#endif // EDB_FLEET_WORLD_HH
