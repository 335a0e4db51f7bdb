/**
 * @file
 * The world rig: what a harness hangs on a `target::Wisp` besides
 * the device's own attach points (`Wisp::attachAuditor`,
 * `Wisp::attachFaults`, `Mcu::addTracer`). Fleet worlds, the fuzz
 * oracles and the soaks share these one definitions; none of them
 * changes what is simulated.
 */

#ifndef EDB_TARGET_RIG_HH
#define EDB_TARGET_RIG_HH

#include <array>
#include <cstdint>
#include <string>

#include "sim/replay.hh"
#include "target/wisp.hh"

namespace edb::target {

/**
 * Forced brown-outs: at each entry's tick the storage capacitor is
 * forced to the entry's voltage.
 */
class BrownOutSchedule
{
  public:
    explicit BrownOutSchedule(Wisp &wisp) : wisp(wisp), player(wisp.sim())
    {}

    void add(sim::Tick at, double volts) { log.record(at, 0, volts); }

    /** Arm every entry after tick `from`: 0 at start, the snapshot
     *  tick after a restore (earlier entries are already reflected
     *  in the restored state). Re-arming cancels the previous arm. */
    void arm(sim::Tick from = 0);

  private:
    Wisp &wisp;
    sim::ScheduleLog log;
    sim::SchedulePlayer player;
};

/**
 * Audit-completeness watch for a seeded WAR gadget: live from the
 * moment the core retires the instruction at `done_pc` (the gadget's
 * completion label) until the next power loss. `losses()` counts the
 * losses that end a live window, exactly the losses the auditor must
 * flag. (Boot counts cannot stand in: they count turn-ons, and the
 * first boot precedes the gadget.) With `done_pc == 0` no tracer is
 * subscribed, so the core keeps its superblocks. The power listener
 * cannot be removed, so the watch must live as long as the device.
 */
class GadgetWatch
{
  public:
    GadgetWatch(Wisp &wisp, mem::Addr done_pc);
    ~GadgetWatch() { wisp.mcu().removeTracer(this); }

    GadgetWatch(const GadgetWatch &) = delete;
    GadgetWatch &operator=(const GadgetWatch &) = delete;

    std::uint64_t losses() const { return losses_; }

    /// @name Snapshot support (live flag, then loss count)
    /// @{
    void saveState(sim::SnapshotWriter &w) const;
    void restoreState(sim::SnapshotReader &r);
    /// @}

  private:
    /** Snapshot field list (DESIGN.md section 8.1). */
    template <class Ar> void fields(Ar &a);

    Wisp &wisp;
    bool live = false;
    std::uint64_t losses_ = 0;
};

/**
 * Everything architecturally observable about a device: the field
 * set every end-state comparison uses (fleet world digests, the fuzz
 * oracles). Raw event-queue ids are excluded on purpose: a snapshot
 * round-trip relabels them while the continuation stays
 * bit-identical.
 */
struct WispDigest
{
    std::uint64_t instrs = 0;
    std::uint64_t cycles = 0;
    std::uint64_t reboots = 0;
    std::uint64_t faults = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t restores = 0;
    std::uint64_t boots = 0;
    mem::Addr pc = 0;
    std::uint8_t state = 0;
    std::uint32_t flags = 0;
    std::array<std::uint32_t, isa::numRegs> regs{};
    double volts = 0.0;
    sim::Tick now = 0;
    /** CRC of the shared RNG's full engine state. */
    std::uint32_t rngCrc = 0;
    std::uint32_t framCrc = 0;
    std::uint32_t sramCrc = 0;
    std::uint64_t framWear = 0;

    static WispDigest of(const Wisp &wisp);

    bool operator==(const WispDigest &) const = default;

    /** Append every field, in declaration order. */
    void write(sim::SnapshotWriter &w) const;

    /** " field=mine/theirs" for every field that differs. */
    std::string diff(const WispDigest &other) const;
};

} // namespace edb::target

#endif // EDB_TARGET_RIG_HH
