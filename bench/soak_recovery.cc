/**
 * @file
 * Soak supervisor with bounded snapshot/replay recovery.
 *
 * Runs the paper's buggy linked-list firmware on harvested power
 * under randomized forced-brown-out schedules, with the NV
 * consistency auditor attached and a forward-progress watchdog
 * armed. Every forced brown-out is recorded in a
 * `target::BrownOutSchedule`, and the full world (target + auditor +
 * watchdog) is snapshotted every 100 ms.
 *
 * When an episode hits an event — a write-after-read violation from
 * the auditor, or the watchdog tripping on reboots without a
 * checkpoint commit — the supervisor rewinds to the last snapshot,
 * re-arms the recorded schedule suffix, and replays. The event must
 * recur at the identical tick with identical attribution, twice:
 * that is the deterministic minimal repro the recovery flow promises
 * (rewind window bounded by the snapshot cadence). Any mismatch is a
 * recovery failure and fails the soak.
 *
 * Usage: soak_recovery [--episodes N]   (default 100)
 */

#include <cstdio>
#include <vector>

#include "apps/linked_list.hh"
#include "bench/common.hh"
#include "energy/harvester.hh"
#include "mem/nv_audit.hh"
#include "sim/replay.hh"
#include "sim/simulator.hh"
#include "sim/snapshot.hh"
#include "target/rig.hh"

using namespace edb;

namespace {

constexpr sim::Tick quantum = sim::oneMs;
constexpr sim::Tick snapPeriod = 100 * sim::oneMs;

/** What a detection pass can end with. */
struct Event
{
    int kind = 0; ///< 0 none, 1 WAR finding, 2 progress stall
    sim::Tick at = 0;
    mem::NvFinding finding{};
    std::uint64_t reboots = 0;
};

bool
sameEvent(const Event &a, const Event &b)
{
    return a.kind == b.kind && a.at == b.at &&
           a.finding.guideAddr == b.finding.guideAddr &&
           a.finding.storeAddr == b.finding.storeAddr &&
           a.finding.storePc == b.finding.storePc &&
           a.finding.interval == b.finding.interval &&
           a.finding.lossTick == b.finding.lossTick &&
           a.reboots == b.reboots;
}

/** One episode's world: target + auditor + forced brown-outs. */
struct World
{
    sim::Simulator sim;
    energy::RfHarvester rf{30.0, 1.0};
    target::Wisp wisp;
    mem::NvAuditor aud;
    target::BrownOutSchedule brownOuts;

    explicit World(std::uint64_t seed, bool with_auditor)
        : sim(seed), wisp(sim, "wisp", &rf, nullptr),
          aud(wisp.makeAuditor()), brownOuts(wisp)
    {
        // The auditor object always exists (it is part of the
        // snapshot layout) but is only wired into the core when the
        // episode actually audits. An attached auditor observes
        // every instruction, which forces per-instruction stepping;
        // leaving it detached in stall-mode episodes lets the
        // superblock tier run under the same snapshot/rewind
        // machinery — architecturally identical either way.
        if (with_auditor)
            wisp.attachAuditor(&aud);
    }
};

std::vector<std::uint8_t>
snapshotWorld(const World &w, const sim::ProgressMonitor &mon)
{
    sim::SnapshotWriter wr;
    w.wisp.saveState(wr);
    w.aud.saveState(wr);
    mon.saveState(wr);
    return wr.finish();
}

bool
rewindWorld(World &w, sim::ProgressMonitor &mon,
            const std::vector<std::uint8_t> &image, sim::Tick snap_tick)
{
    sim::SnapshotReader r;
    if (!r.load(image))
        return false;
    sim::EventRearmer rearmer(w.sim);
    w.wisp.restoreState(r, rearmer);
    w.aud.restoreState(r);
    mon.restoreState(r);
    if (!r.ok())
        return false;
    rearmer.flush();
    w.brownOuts.arm(snap_tick);
    return true;
}

/**
 * Advance until an event or `horizon`. When `snap_img` is given,
 * keeps the latest periodic snapshot (recording pass); replay passes
 * leave it null.
 */
Event
detect(World &w, sim::ProgressMonitor &mon, bool audit,
       sim::Tick horizon, std::vector<std::uint8_t> *snap_img,
       sim::Tick *snap_tick)
{
    std::uint64_t seenViolations = w.aud.violationCount();
    std::size_t seenFindings = w.aud.findings().size();
    while (w.sim.now() < horizon) {
        w.sim.runFor(quantum);
        if (audit && w.aud.violationCount() > seenViolations) {
            Event ev;
            ev.kind = 1;
            ev.at = w.sim.now();
            if (w.aud.findings().size() > seenFindings)
                ev.finding = w.aud.findings()[seenFindings];
            return ev;
        }
        if (mon.update(w.wisp.mcu().rebootCount(),
                       w.wisp.mcu().checkpointCount())) {
            Event ev;
            ev.kind = 2;
            ev.at = w.sim.now();
            ev.reboots = w.wisp.mcu().rebootCount();
            return ev;
        }
        if (snap_img != nullptr && w.sim.now() % snapPeriod == 0) {
            *snap_img = snapshotWorld(w, mon);
            *snap_tick = w.sim.now();
        }
    }
    return Event{};
}

struct EpisodeResult
{
    int kind = 0; ///< 0 quiet, 1 finding, 2 stall
    bool reproduced = false;
    bool recoveryFailed = false;
    sim::Tick eventTick = 0;
    sim::Tick snapTick = 0;
    /** NV backend counters (mem/nv_region.hh). */
    std::uint64_t nvWrites = 0;
    std::uint64_t nvMaxWear = 0;
    std::uint64_t nvTornBursts = 0;
    std::uint64_t tornCommits = 0;
};

EpisodeResult
runEpisode(std::uint64_t index)
{
    // Even episodes hunt WAR findings (watchdog out of the way); odd
    // episodes exercise the stall detector alone (the auditor is
    // muted -- it fires first otherwise -- and the non-checkpointing
    // app never commits, so a handful of reboots trips the watchdog).
    const bool stallMode = (index % 2) == 1;
    const sim::Tick horizon = 4 * sim::oneSec;
    World w(5000 + index, !stallMode);
    w.wisp.flash(apps::buildLinkedListApp());
    w.wisp.start();
    sim::ProgressMonitor mon(stallMode ? 5 : (1u << 20));

    // Randomized environment, recorded for replay: forced brown-outs
    // multiply the power-loss windows the linked-list bug needs.
    sim::Rng meta(7000 + index);
    auto count = meta.uniformInt(8, 20);
    for (decltype(count) i = 0; i < count; ++i) {
        // Draw order (voltage, then tick) is part of the episode's
        // seed-to-schedule mapping.
        const double volts = meta.uniform(0.8, 1.7);
        w.brownOuts.add(static_cast<sim::Tick>(meta.uniformInt(
                            100 * sim::oneMs, horizon)),
                        volts);
    }
    w.brownOuts.arm();

    std::vector<std::uint8_t> snapImg = snapshotWorld(w, mon);
    sim::Tick snapTick = 0;
    Event ev =
        detect(w, mon, !stallMode, horizon, &snapImg, &snapTick);

    EpisodeResult res;
    const mem::NvRegion &fram = w.wisp.framRegion();
    res.nvWrites = fram.writeCount();
    res.nvMaxWear = fram.maxWear();
    res.nvTornBursts = fram.tornWrites();
    res.tornCommits = w.wisp.mcu().tornCommitCount();
    if (ev.kind == 0)
        return res; // quiet: ran to the horizon without incident
    res.kind = ev.kind;
    res.eventTick = ev.at;
    res.snapTick = snapTick;

    // Bounded recovery: rewind to the last snapshot and replay the
    // recorded schedule; the event must recur identically, twice.
    res.reproduced = true;
    for (int attempt = 0; attempt < 2; ++attempt) {
        if (!rewindWorld(w, mon, snapImg, snapTick)) {
            res.reproduced = false;
            res.recoveryFailed = true;
            break;
        }
        Event again = detect(w, mon, !stallMode,
                             ev.at + 500 * sim::oneMs, nullptr,
                             nullptr);
        if (!sameEvent(ev, again)) {
            res.reproduced = false;
            res.recoveryFailed = true;
            std::printf(
                "episode %4llu REPLAY DIVERGED (attempt %d): "
                "recorded kind=%d tick=%lld, replay kind=%d "
                "tick=%lld\n",
                static_cast<unsigned long long>(index), attempt + 1,
                ev.kind, static_cast<long long>(ev.at), again.kind,
                static_cast<long long>(again.at));
            break;
        }
    }
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Cli cli(argc, argv);
    int episodes = static_cast<int>(cli.count("episodes", 100));

    bench::banner(
        "Soak + recovery: " + std::to_string(episodes) +
        " episodes, buggy linked-list app, randomized brown-out "
        "schedules, NV auditor + progress watchdog, snapshot every "
        "100 ms, every event rewound and replayed twice");

    std::uint64_t quiet = 0, findingEvents = 0, stallEvents = 0;
    std::uint64_t reproduced = 0, recoveryFailures = 0;
    std::uint64_t nvWrites = 0, nvMaxWear = 0, nvTornBursts = 0;
    std::uint64_t tornCommits = 0;
    for (int i = 0; i < episodes; ++i) {
        EpisodeResult r = runEpisode(static_cast<std::uint64_t>(i));
        nvWrites += r.nvWrites;
        if (r.nvMaxWear > nvMaxWear)
            nvMaxWear = r.nvMaxWear;
        nvTornBursts += r.nvTornBursts;
        tornCommits += r.tornCommits;
        if (r.kind == 0)
            ++quiet;
        else if (r.kind == 1)
            ++findingEvents;
        else
            ++stallEvents;
        if (r.kind != 0 && r.reproduced)
            ++reproduced;
        if (r.recoveryFailed)
            ++recoveryFailures;
        if ((i + 1) % 25 == 0)
            std::printf("... %d/%d episodes\n", i + 1, episodes);
    }

    bench::Json ep;
    ep.field("run", episodes)
        .field("quiet", quiet)
        .field("war_findings", findingEvents)
        .field("stalls", stallEvents)
        .field("reproduced", reproduced)
        .field("recovery_failures", recoveryFailures);
    bench::Json nv;
    nv.field("writes", nvWrites)
        .field("max_wear", nvMaxWear)
        .field("torn_bursts", nvTornBursts)
        .field("torn_commits", tornCommits);
    bench::Json summary;
    bench::runConfigFields(summary, cli);
    summary.object("episodes", ep)
        .object("nv", nv)
        .print();

    // The gate is real: recovery must never diverge, and with both
    // episode flavors present each detector must fire and reproduce
    // at least once — an all-quiet soak means the rig is broken.
    bool ok = recoveryFailures == 0;
    if (episodes >= 2)
        ok = ok && findingEvents > 0 && stallEvents > 0 &&
             reproduced == findingEvents + stallEvents;
    std::printf(ok ? "\nSOAK PASS\n" : "\nSOAK FAIL\n");
    return ok ? 0 : 1;
}
