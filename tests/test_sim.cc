/**
 * @file
 * Unit tests for the simulation kernel: event queue, simulator,
 * RNG, time helpers, time cursor, logging.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <new>
#include <vector>

#include "sim/event.hh"
#include "sim/logging.hh"
#include "sim/replay.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"
#include "sim/snapshot.hh"
#include "sim/time.hh"
#include "sim/time_cursor.hh"

using namespace edb::sim;

namespace {

TEST(Time, UnitConversions)
{
    EXPECT_EQ(oneSec, 1'000'000'000'000);
    EXPECT_EQ(ticksFromSeconds(1.0), oneSec);
    EXPECT_EQ(ticksFromSeconds(0.5e-6), oneUs / 2);
    EXPECT_DOUBLE_EQ(secondsFromTicks(oneSec), 1.0);
    EXPECT_DOUBLE_EQ(millisFromTicks(oneMs), 1.0);
    EXPECT_DOUBLE_EQ(microsFromTicks(oneUs), 1.0);
}

TEST(Time, McuCycleIsIntegral)
{
    // 4 MHz must map to an exact tick count (see time.hh rationale).
    EXPECT_EQ(ticksFromSeconds(1.0 / 4e6), 250 * oneNs);
}

TEST(EventQueue, FiresInTimestampOrder)
{
    EventQueue queue;
    std::vector<int> order;
    queue.schedule(30, [&] { order.push_back(3); });
    queue.schedule(10, [&] { order.push_back(1); });
    queue.schedule(20, [&] { order.push_back(2); });
    Tick now = 0;
    while (queue.runOne(now)) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        queue.schedule(42, [&order, i] { order.push_back(i); });
    Tick now = 0;
    while (queue.runOne(now)) {
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue queue;
    bool fired = false;
    EventId id = queue.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(queue.cancel(id));
    EXPECT_TRUE(queue.empty());
    Tick now = 0;
    EXPECT_FALSE(queue.runOne(now));
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse)
{
    EventQueue queue;
    EventId id = queue.schedule(10, [] {});
    EXPECT_TRUE(queue.cancel(id));
    EXPECT_FALSE(queue.cancel(id));
    EXPECT_FALSE(queue.cancel(invalidEventId));
}

TEST(EventQueue, NextTimeSkipsCancelled)
{
    EventQueue queue;
    EventId early = queue.schedule(10, [] {});
    queue.schedule(20, [] {});
    queue.cancel(early);
    EXPECT_EQ(queue.nextTime(), 20);
    EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueue, NextTimeEmptyIsMax)
{
    EventQueue queue;
    EXPECT_EQ(queue.nextTime(), maxTick);
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue queue;
    std::vector<int> order;
    queue.schedule(10, [&] {
        order.push_back(1);
        queue.schedule(15, [&] { order.push_back(2); });
    });
    Tick now = 0;
    while (queue.runOne(now)) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(now, 15);
}

TEST(Simulator, RunUntilStopsAtBoundary)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(100, [&] { ++fired; });
    sim.schedule(200, [&] { ++fired; });
    sim.runUntil(150);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 150);
    sim.runUntil(200); // boundary events fire
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunForIsRelative)
{
    Simulator sim;
    sim.runFor(50);
    EXPECT_EQ(sim.now(), 50);
    sim.runFor(50);
    EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, ScheduleInPastClampsToNow)
{
    Simulator sim;
    sim.runFor(100);
    bool fired = false;
    sim.schedule(10, [&] { fired = true; });
    sim.runFor(1);
    EXPECT_TRUE(fired);
    EXPECT_EQ(sim.now(), 101);
}

TEST(Simulator, StopEndsRunEarly)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(10, [&] {
        ++fired;
        sim.stop();
    });
    sim.schedule(20, [&] { ++fired; });
    sim.runUntil(100);
    EXPECT_EQ(fired, 1);
    sim.runUntil(100);
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, TimeIsMonotonic)
{
    Simulator sim;
    Tick last = -1;
    for (int i = 0; i < 50; ++i) {
        sim.scheduleIn(i * 7 % 13, [&sim, &last] {
            EXPECT_GE(sim.now(), last);
            last = sim.now();
        });
    }
    sim.runToCompletion();
}

TEST(Simulator, ComponentsRegister)
{
    Simulator sim;
    Component a(sim, "a");
    Component b(sim, "b");
    ASSERT_EQ(sim.components().size(), 2u);
    EXPECT_EQ(sim.components()[0]->name(), "a");
    EXPECT_EQ(&a.sim(), &sim);
    EXPECT_EQ(b.now(), 0);
}

TEST(Rng, DeterministicBySeed)
{
    Rng a(7), b(7), c(8);
    double va = a.uniform();
    EXPECT_DOUBLE_EQ(va, b.uniform());
    EXPECT_NE(va, c.uniform());
}

TEST(Rng, UniformBounds)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniform(2.0, 3.0);
        EXPECT_GE(v, 2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, UniformIntInclusive)
{
    Rng rng(1);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMomentsRoughlyCorrect)
{
    Rng rng(2);
    double sum = 0, sum2 = 0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        double v = rng.gaussian(2.0);
        sum += v;
        sum2 += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.1);
    EXPECT_NEAR(sum2 / n, 4.0, 0.3);
}

TEST(Rng, GaussianZeroSigmaIsZero)
{
    Rng rng(3);
    EXPECT_EQ(rng.gaussian(0.0), 0.0);
    EXPECT_EQ(rng.gaussian(-1.0), 0.0);
}

TEST(Rng, EngineMatchesStdMt19937_64WordForWord)
{
    // The standard pins mersenne_twister_engine's output exactly;
    // the bulk-tempering engine must reproduce it across several
    // twist boundaries and for diverse seeds.
    for (std::uint64_t seed : {1ULL, 7ULL, 5489ULL, 0xDEADBEEFULL}) {
        Mt64 ours(seed);
        std::mt19937_64 ref(seed);
        for (int i = 0; i < 2000; ++i)
            ASSERT_EQ(ours(), ref()) << "seed " << seed << " draw " << i;
    }
}

TEST(Rng, CanonicalMatchesStdGenerateCanonical)
{
    Rng rng(11);
    std::mt19937_64 ref(11);
    for (int i = 0; i < 100000; ++i) {
        double expect = std::generate_canonical<double, 53>(ref);
        EXPECT_EQ(rng.canonical(), expect) << "draw " << i;
    }
}

TEST(Rng, GaussianMatchesStdNormalDistributionExactly)
{
    // The hand-inlined polar method must reproduce the library
    // stream bit for bit (a fresh distribution per draw, as
    // gaussian() has always behaved) — the whole point of the fast
    // path is that seeded runs keep their historical trajectories.
    Rng rng(42);
    std::mt19937_64 ref(42);
    for (int i = 0; i < 100000; ++i) {
        double expect = std::normal_distribution<double>(0.0, 0.05)(ref);
        EXPECT_EQ(rng.gaussian(0.05), expect) << "draw " << i;
    }
}

TEST(Rng, ChanceEdges)
{
    Rng rng(4);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(TimeCursor, TracksMaxOfClocks)
{
    Simulator sim;
    TimeCursor cursor(sim);
    EXPECT_EQ(cursor.now(), 0);
    cursor.advance(500);
    EXPECT_EQ(cursor.now(), 500);
    cursor.advance(100); // lower values ignored
    EXPECT_EQ(cursor.now(), 500);
    sim.runFor(1000);
    EXPECT_EQ(cursor.now(), 1000);
}

TEST(TimeCursor, ScheduleInUsesLocalClock)
{
    Simulator sim;
    TimeCursor cursor(sim);
    cursor.advance(300);
    bool fired = false;
    Tick when = 0;
    cursor.scheduleIn(100, [&] {
        fired = true;
        when = sim.now();
    });
    sim.runToCompletion();
    EXPECT_TRUE(fired);
    EXPECT_EQ(when, 400);
}

TEST(Rng, ExportImportResumesStreamExactly)
{
    Rng a(123);
    // Land mid-block: 1000 draws = 3 refills + 64 into the buffer.
    for (int i = 0; i < 1000; ++i)
        a.raw()();
    Mt64::State saved = a.exportState();

    std::vector<std::uint64_t> expect;
    for (int i = 0; i < 700; ++i) // crosses the next refill boundary
        expect.push_back(a.raw()());

    Rng b(1); // different seed: import must fully overwrite
    b.importState(saved);
    for (std::uint64_t v : expect)
        EXPECT_EQ(b.raw()(), v);
}

TEST(Rng, ExportCapturesMidBlockIndex)
{
    Rng a(7);
    for (int i = 0; i < 5; ++i)
        a.raw()();
    EXPECT_EQ(a.exportState().index, 5u);
}

TEST(Rng, ImportClampsCorruptIndex)
{
    Mt64::State s = Rng(9).exportState();
    s.index = 9999; // out of bounds: must clamp, not read past out[]
    Rng a(1), b(2);
    a.importState(s);
    b.importState(s);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(a.raw()(), b.raw()());
}

TEST(Rng, FreshEngineStateIgnoresPriorStorage)
{
    // Before the first refill the output buffer is still part of the
    // exported state (snapshots and world digests copy it), so it
    // must not carry whatever bytes the storage held.
    alignas(Mt64) unsigned char storage[sizeof(Mt64)];
    std::memset(storage, 0xA5, sizeof(storage));
    Mt64 *dirty = new (storage) Mt64();
    const Mt64::State got = dirty->exportState();
    const Mt64::State want = Mt64().exportState();
    dirty->~Mt64();
    EXPECT_TRUE(std::equal(std::begin(got.state), std::end(got.state),
                           std::begin(want.state)));
    EXPECT_TRUE(std::equal(std::begin(got.out), std::end(got.out),
                           std::begin(want.out)));
    EXPECT_EQ(got.index, want.index);
}

TEST(Rng, ExportImportCoversDistributionHelpers)
{
    Rng a(55);
    a.gaussian(1.0); // leave the engine at an arbitrary offset
    a.uniformInt(0, 99);
    Mt64::State saved = a.exportState();
    double u = a.uniform();
    double g = a.gaussian(2.5);
    std::int64_t n = a.uniformInt(-10, 10);

    Rng b(1);
    b.importState(saved);
    EXPECT_EQ(b.uniform(), u);
    EXPECT_EQ(b.gaussian(2.5), g);
    EXPECT_EQ(b.uniformInt(-10, 10), n);
}

TEST(ScheduleLog, RecordsAndTruncates)
{
    ScheduleLog log;
    log.record(10, 1, 0.5);
    log.record(20, 2);
    log.record(30, 1, 1.5);
    EXPECT_EQ(log.size(), 3u);
    log.truncateAfter(20);
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log.entries()[1].at, 20);
    log.clear();
    EXPECT_TRUE(log.empty());
}

TEST(ScheduleLog, SnapshotRoundTrip)
{
    ScheduleLog log;
    log.record(10, 1, 0.5);
    log.record(30, 7, -2.25);
    SnapshotWriter w;
    log.saveState(w);

    ScheduleLog back;
    back.record(99, 9); // must be replaced, not appended to
    SnapshotReader r;
    ASSERT_TRUE(r.load(w.finish()));
    back.restoreState(r);
    EXPECT_TRUE(r.ok());
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back.entries()[0].at, 10);
    EXPECT_EQ(back.entries()[0].op, 1u);
    EXPECT_EQ(back.entries()[0].arg, 0.5);
    EXPECT_EQ(back.entries()[1].at, 30);
    EXPECT_EQ(back.entries()[1].op, 7u);
    EXPECT_EQ(back.entries()[1].arg, -2.25);
}

TEST(SchedulePlayer, ArmsOnlyTheSuffixPastFrom)
{
    Simulator sim(1);
    ScheduleLog log;
    log.record(10, 1, 0.1);
    log.record(20, 2, 0.2);
    log.record(30, 3, 0.3);

    SchedulePlayer player(sim);
    std::vector<std::uint32_t> applied;
    player.arm(log, 15, [&applied](const ScheduleEntry &e) {
        applied.push_back(e.op);
    });
    EXPECT_EQ(player.pending(), 2u);
    sim.runUntil(40);
    EXPECT_EQ(player.fired(), 2u);
    EXPECT_EQ(player.pending(), 0u);
    ASSERT_EQ(applied.size(), 2u);
    EXPECT_EQ(applied[0], 2u);
    EXPECT_EQ(applied[1], 3u);
}

TEST(SchedulePlayer, CancelAndRearmReplaceTheSchedule)
{
    Simulator sim(1);
    ScheduleLog log;
    log.record(10, 1);
    log.record(20, 2);

    SchedulePlayer player(sim);
    int applies = 0;
    player.arm(log, 0, [&applies](const ScheduleEntry &) {
        ++applies;
    });
    EXPECT_EQ(player.pending(), 2u);
    player.cancel();
    EXPECT_EQ(player.pending(), 0u);
    sim.runUntil(15);
    EXPECT_EQ(applies, 0);

    // Re-arm mid-run: only the not-yet-reached entry fires, once.
    player.arm(log, sim.now(), [&applies](const ScheduleEntry &) {
        ++applies;
    });
    EXPECT_EQ(player.pending(), 1u);
    sim.runUntil(40);
    EXPECT_EQ(applies, 1);
}

TEST(ProgressMonitor, TripsOnRebootsWithoutCommit)
{
    ProgressMonitor mon(3);
    EXPECT_FALSE(mon.update(0, 0)); // primes
    EXPECT_FALSE(mon.update(1, 0));
    EXPECT_FALSE(mon.update(2, 0));
    EXPECT_TRUE(mon.update(3, 0));
    EXPECT_TRUE(mon.tripped());
    EXPECT_EQ(mon.rebootsSinceCommit(), 3u);
}

TEST(ProgressMonitor, CommitResetsTheWindow)
{
    ProgressMonitor mon(3);
    mon.update(0, 0);
    mon.update(2, 0);
    EXPECT_FALSE(mon.update(2, 1)); // a commit lands
    EXPECT_EQ(mon.rebootsSinceCommit(), 0u);
    EXPECT_FALSE(mon.update(4, 1));
    EXPECT_TRUE(mon.update(5, 1));
}

TEST(ProgressMonitor, RebaseAfterRewind)
{
    ProgressMonitor mon(3);
    mon.update(5, 0);
    mon.update(7, 0);
    // Counters drop below the baseline (a snapshot rewind):
    // auto-rebase instead of a bogus huge delta.
    EXPECT_FALSE(mon.update(3, 0));
    EXPECT_EQ(mon.rebootsSinceCommit(), 0u);
    EXPECT_FALSE(mon.update(5, 0));
    EXPECT_TRUE(mon.update(6, 0));
}

TEST(ProgressMonitor, SnapshotKeepsThePartialWindow)
{
    ProgressMonitor mon(5);
    mon.update(0, 0);
    mon.update(3, 0); // 3 reboots into the window
    SnapshotWriter w;
    mon.saveState(w);

    ProgressMonitor back(1); // threshold restored from the image
    SnapshotReader r;
    ASSERT_TRUE(r.load(w.finish()));
    back.restoreState(r);
    EXPECT_EQ(back.threshold(), 5u);
    EXPECT_EQ(back.rebootsSinceCommit(), 3u);
    EXPECT_FALSE(back.update(4, 0));
    EXPECT_TRUE(back.update(5, 0));
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad ", 42), FatalError);
    try {
        fatal("value=", 7);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "value=7");
    }
}

} // namespace
