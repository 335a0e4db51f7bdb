#include "sim/replay.hh"

#include <algorithm>

#include "sim/simulator.hh"
#include "sim/snapshot.hh"

namespace edb::sim {

void
ScheduleLog::truncateAfter(Tick at)
{
    log.erase(std::remove_if(log.begin(), log.end(),
                             [at](const ScheduleEntry &e) {
                                 return e.at > at;
                             }),
              log.end());
}

template <class Ar>
void
ScheduleLog::fields(Ar &a)
{
    a.section("sched");
    a.seq(log, [&a](auto &e) {
        a.tick(e.at);
        a.u32(e.op);
        a.f64(e.arg);
    });
}

void
ScheduleLog::saveState(SnapshotWriter &w) const
{
    const_cast<ScheduleLog *>(this)->fields(w);
}

void
ScheduleLog::restoreState(SnapshotReader &r)
{
    fields(r);
}

void
SchedulePlayer::arm(const ScheduleLog &log, Tick from, ApplyFn apply)
{
    cancel();
    applyFn = std::move(apply);
    for (const ScheduleEntry &e : log.entries()) {
        if (e.at <= from)
            continue;
        // Copy the entry into the closure: the log may mutate (the
        // supervisor keeps recording) while the replay is armed.
        ScheduleEntry entry = e;
        EventId id = sim_.schedule(e.at, [this, entry] {
            ++firedCount;
            if (applyFn)
                applyFn(entry);
        });
        armed.push_back(id);
        ++armedCount;
    }
}

void
SchedulePlayer::cancel()
{
    for (EventId id : armed)
        sim_.cancel(id);
    armed.clear();
    armedCount = 0;
    firedCount = 0;
}

bool
ProgressMonitor::update(std::uint64_t reboots, std::uint64_t commits)
{
    if (!primed) {
        rebase(reboots, commits);
        return tripped_;
    }
    if (commits > lastCommits) {
        lastCommits = commits;
        lastReboots = reboots;
        sinceCommit = 0;
        tripped_ = false;
    } else if (reboots >= lastReboots) {
        sinceCommit = reboots - lastReboots;
    } else {
        // Counters went backwards without a rebase: treat as one.
        rebase(reboots, commits);
        return tripped_;
    }
    if (sinceCommit >= maxReboots)
        tripped_ = true;
    return tripped_;
}

void
ProgressMonitor::rebase(std::uint64_t reboots, std::uint64_t commits)
{
    lastReboots = reboots;
    lastCommits = commits;
    sinceCommit = 0;
    primed = true;
    tripped_ = false;
}

template <class Ar>
void
ProgressMonitor::fields(Ar &a)
{
    a.section("pmon");
    a.u64(maxReboots);
    a.u64(lastReboots);
    a.u64(lastCommits);
    a.u64(sinceCommit);
    a.boolean(primed);
    a.boolean(tripped_);
}

void
ProgressMonitor::saveState(SnapshotWriter &w) const
{
    const_cast<ProgressMonitor *>(this)->fields(w);
}

void
ProgressMonitor::restoreState(SnapshotReader &r)
{
    fields(r);
}

} // namespace edb::sim
