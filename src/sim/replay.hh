/**
 * @file
 * Deterministic schedule record/replay + forward-progress watchdog.
 *
 * A soak run drives the environment (harvester carrier gating, forced
 * brown-outs, tag movement) from random draws. To turn a failure deep
 * into a soak into a minimal deterministic repro, the supervisor logs
 * every environment action it applies as an opaque `(op, arg)` pair
 * with its absolute tick. After rewinding the simulation to an earlier
 * snapshot, `SchedulePlayer` re-arms exactly the suffix of the log
 * past the snapshot tick, so the replayed world is bit-identical to
 * the recorded one — same finding at the same tick, every time.
 *
 * The `sim` module knows nothing about harvesters or targets, so the
 * log stores opaque opcodes and the caller supplies the apply
 * callback; `ProgressMonitor` likewise consumes raw cumulative
 * counters (reboots, checkpoint commits) rather than an Mcu.
 */

#ifndef EDB_SIM_REPLAY_HH
#define EDB_SIM_REPLAY_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event.hh"
#include "sim/time.hh"

namespace edb::sim {

class Simulator;
class SnapshotWriter;
class SnapshotReader;

/** One recorded environment action, applied at absolute tick `at`. */
struct ScheduleEntry
{
    Tick at = 0;
    /** Caller-defined opcode (e.g. carrier-off, forced brown-out). */
    std::uint32_t op = 0;
    /** Caller-defined argument (distance, duty factor, ...). */
    double arg = 0.0;
};

/**
 * Append-only log of the environment actions applied during a run.
 * Serializable alongside a snapshot so a saved episode carries its
 * own replay schedule.
 */
class ScheduleLog
{
  public:
    void
    record(Tick at, std::uint32_t op, double arg = 0.0)
    {
        log.push_back(ScheduleEntry{at, op, arg});
    }

    const std::vector<ScheduleEntry> &entries() const { return log; }
    std::size_t size() const { return log.size(); }
    bool empty() const { return log.empty(); }
    void clear() { log.clear(); }

    /** Drop entries recorded after `at` (rewind truncation is NOT
     *  wanted for replay — keep the suffix — so this exists only for
     *  callers that restart recording from a snapshot). */
    void truncateAfter(Tick at);

    void saveState(SnapshotWriter &w) const;
    void restoreState(SnapshotReader &r);

  private:
    /** Snapshot field list (DESIGN.md section 8.1). */
    template <class Ar> void fields(Ar &a);

    std::vector<ScheduleEntry> log;
};

/**
 * Arms a recorded schedule into a simulator's event queue.
 *
 * `arm` schedules every entry with `at > from` (entries at or before
 * the snapshot tick are already reflected in the restored state) and
 * invokes the apply callback at exactly the recorded tick. One player
 * drives at most one armed schedule; re-arming cancels the previous
 * one first.
 */
class SchedulePlayer
{
  public:
    using ApplyFn = std::function<void(const ScheduleEntry &)>;

    explicit SchedulePlayer(Simulator &simulator) : sim_(simulator) {}
    ~SchedulePlayer() { cancel(); }

    SchedulePlayer(const SchedulePlayer &) = delete;
    SchedulePlayer &operator=(const SchedulePlayer &) = delete;

    /** Arm the suffix of `log` past `from`; `apply` runs per entry. */
    void arm(const ScheduleLog &log, Tick from, ApplyFn apply);

    /** Cancel all armed-but-unfired entries. */
    void cancel();

    /** Entries armed and not yet fired. */
    std::size_t pending() const { return armedCount - firedCount; }

    /** Entries fired since the last arm. */
    std::size_t fired() const { return firedCount; }

  private:
    Simulator &sim_;
    ApplyFn applyFn;
    std::vector<EventId> armed;
    std::size_t armedCount = 0;
    std::size_t firedCount = 0;
};

/**
 * No-forward-progress detector for intermittent executions.
 *
 * Fed cumulative (reboot, checkpoint-commit) counters, it trips when
 * the target reboots `maxReboots` times without a single checkpoint
 * commit in between — the signature of a non-terminating reboot loop
 * (a task too energy-expensive to ever complete, or NV state
 * corrupted into a crash loop).
 */
class ProgressMonitor
{
  public:
    explicit ProgressMonitor(std::uint64_t max_reboots_without_commit)
        : maxReboots(max_reboots_without_commit)
    {
    }

    /**
     * Update with the target's cumulative counters.
     * @return true when the monitor is (now) tripped.
     */
    bool update(std::uint64_t reboots, std::uint64_t commits);

    bool tripped() const { return tripped_; }
    std::uint64_t rebootsSinceCommit() const { return sinceCommit; }
    std::uint64_t threshold() const { return maxReboots; }

    /** Re-baseline after a rewind (counters jump backwards). */
    void rebase(std::uint64_t reboots, std::uint64_t commits);

    /// @name Snapshot support
    /// Alternative to rebase(): restoring the monitor with the target
    /// keeps the partial reboots-since-commit window, so a replayed
    /// stall trips at exactly the recorded tick.
    /// @{
    void saveState(SnapshotWriter &w) const;
    void restoreState(SnapshotReader &r);
    /// @}

  private:
    /** Snapshot field list (DESIGN.md section 8.1). */
    template <class Ar> void fields(Ar &a);

    std::uint64_t maxReboots;
    std::uint64_t lastReboots = 0;
    std::uint64_t lastCommits = 0;
    std::uint64_t sinceCommit = 0;
    bool primed = false;
    bool tripped_ = false;
};

} // namespace edb::sim

#endif // EDB_SIM_REPLAY_HH
