/**
 * @file
 * Snapshot/restore tests: container integrity, resume equivalence
 * (a restored run is bit-identical to the original continuing), and
 * per-peripheral round trips with transactions restored mid-flight.
 *
 * Restore protocol under test (target/wisp.hh): construct a fresh
 * Simulator with the same seed and a Wisp with the same config, flash
 * the same program, do NOT start(), then restoreState + flush().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "apps/activity.hh"
#include "apps/linked_list.hh"
#include "edb/board.hh"
#include "energy/harvester.hh"
#include "fleet/fleet.hh"
#include "isa/assembler.hh"
#include "mem/nv_audit.hh"
#include "runtime/libedb.hh"
#include "sim/fault.hh"
#include "mcu/mmio_map.hh"
#include "rfid/channel.hh"
#include "sim/snapshot.hh"
#include "sim/replay.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"

using namespace edb;
namespace m = edb::mcu::mmio;

// Largest single allocation, so the malformed-image tests can check
// that no decoded count turns into an allocation. AddressSanitizer
// owns operator new in sanitizer builds (and aborts on a huge
// request itself), so the tracker is compiled out there.
static std::size_t largestAlloc = 0;

#if !defined(__SANITIZE_ADDRESS__)
void *
operator new(std::size_t n)
{
    largestAlloc = std::max(largestAlloc, n);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}
#endif

namespace {

std::vector<std::uint8_t>
snapshotOf(const target::Wisp &wisp)
{
    sim::SnapshotWriter w;
    wisp.saveState(w);
    return w.finish();
}

bool
restoreInto(const std::vector<std::uint8_t> &image, sim::Simulator &s,
            target::Wisp &wisp)
{
    sim::SnapshotReader r;
    if (!r.load(image))
        return false;
    sim::EventRearmer rearmer(s);
    wisp.restoreState(r, rearmer);
    if (!r.ok())
        return false;
    rearmer.flush();
    return true;
}

/** Everything the resume-equivalence guarantee promises to match. */
struct Digest
{
    std::uint64_t instrs, cycles, reboots, boots, checkpoints,
        restores;
    std::uint32_t pc;
    mcu::McuState state;
    double volts;
    sim::Tick now;
};

Digest
digestOf(sim::Simulator &s, target::Wisp &wisp)
{
    Digest d;
    d.instrs = wisp.mcu().instrCount();
    d.cycles = wisp.mcu().cycleCount();
    d.reboots = wisp.mcu().rebootCount();
    d.boots = wisp.power().bootCount();
    d.checkpoints = wisp.mcu().checkpointCount();
    d.restores = wisp.mcu().restoreCount();
    d.pc = wisp.mcu().pc();
    d.state = wisp.state();
    d.volts = wisp.power().voltageNoAdvance();
    d.now = s.now();
    return d;
}

void
expectSameDigest(const Digest &a, const Digest &b)
{
    EXPECT_EQ(a.instrs, b.instrs);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.reboots, b.reboots);
    EXPECT_EQ(a.boots, b.boots);
    EXPECT_EQ(a.checkpoints, b.checkpoints);
    EXPECT_EQ(a.restores, b.restores);
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.state, b.state);
    // Bit-identical, not approximately equal.
    EXPECT_EQ(a.volts, b.volts);
    EXPECT_EQ(a.now, b.now);
}

// ---------------------------------------------------------------
// Container integrity.
// ---------------------------------------------------------------

TEST(SnapshotContainer, RoundTripsTypedFields)
{
    sim::SnapshotWriter w;
    w.section("t");
    w.u8(0xAB);
    w.u32(0xDEADBEEF);
    w.u64(0x0123456789ABCDEFull);
    w.tick(-42);
    w.boolean(true);
    w.f64(3.25);
    std::vector<std::uint8_t> payload{1, 2, 3};
    w.blob(payload.data(), payload.size());
    sim::SnapshotReader r;
    ASSERT_TRUE(r.load(w.finish()));
    EXPECT_TRUE(r.section("t"));
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.tick(), -42);
    EXPECT_TRUE(r.boolean());
    EXPECT_EQ(r.f64(), 3.25);
    EXPECT_EQ(r.blob(), payload);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.atEnd());
}

TEST(SnapshotContainer, CorruptionIsDetected)
{
    sim::SnapshotWriter w;
    w.section("t");
    w.u32(1234);
    auto image = w.finish();
    auto corrupt = image;
    corrupt.back() ^= 0x01;
    sim::SnapshotReader r;
    EXPECT_FALSE(r.load(corrupt));
    EXPECT_FALSE(r.ok());
    auto truncated = image;
    truncated.resize(truncated.size() - 1);
    EXPECT_FALSE(r.load(truncated));
    auto bad_magic = image;
    bad_magic[0] = 'X';
    EXPECT_FALSE(r.load(bad_magic));
}

TEST(SnapshotContainer, SectionMismatchFailsSticky)
{
    sim::SnapshotWriter w;
    w.section("aaa");
    w.u32(7);
    sim::SnapshotReader r;
    ASSERT_TRUE(r.load(w.finish()));
    EXPECT_FALSE(r.section("bbb"));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.u32(), 0u); // total: reads after failure return 0
}

// ---------------------------------------------------------------
// Resume equivalence on a full intermittent run.
// ---------------------------------------------------------------

void
resumeEquivalence(const target::WispConfig &cfg, std::uint64_t seed)
{
    constexpr sim::Tick snapAt = 500 * sim::oneMs;
    constexpr sim::Tick endAt = 1500 * sim::oneMs;
    auto program = apps::buildLinkedListApp();

    sim::Simulator sim1(seed);
    energy::RfHarvester rf1(30.0, 1.0);
    target::Wisp wisp1(sim1, "wisp", &rf1, nullptr, cfg);
    wisp1.flash(program);
    wisp1.start();
    sim1.runUntil(snapAt);
    auto image = snapshotOf(wisp1);
    ASSERT_GT(wisp1.mcu().instrCount(), 0u);

    // The original continues to the end: the reference trajectory.
    sim1.runUntil(endAt);
    Digest ref = digestOf(sim1, wisp1);

    // A fresh world resumes from the snapshot.
    sim::Simulator sim2(seed);
    energy::RfHarvester rf2(30.0, 1.0);
    target::Wisp wisp2(sim2, "wisp", &rf2, nullptr, cfg);
    wisp2.flash(program);
    ASSERT_TRUE(restoreInto(image, sim2, wisp2));
    EXPECT_EQ(sim2.now(), snapAt);
    sim2.runUntil(endAt);
    expectSameDigest(digestOf(sim2, wisp2), ref);
}

TEST(SnapshotResume, BitIdenticalOnFastPath)
{
    resumeEquivalence(target::WispConfig{}, 11);
}

TEST(SnapshotResume, BitIdenticalOnReferencePath)
{
    resumeEquivalence(target::referenceEngine(), 11);
}

TEST(SnapshotResume, BitIdenticalWithCheckpointing)
{
    target::WispConfig cfg;
    cfg.mcu.checkpointingEnabled = true;
    resumeEquivalence(cfg, 3);
}

TEST(SnapshotResume, FileRoundTrip)
{
    constexpr sim::Tick snapAt = 300 * sim::oneMs;
    constexpr sim::Tick endAt = 800 * sim::oneMs;
    auto program = apps::buildLinkedListApp();
    std::string path = ::testing::TempDir() + "edb_snapshot_test.snap";

    sim::Simulator sim1(5);
    energy::RfHarvester rf1(30.0, 1.0);
    target::Wisp wisp1(sim1, "wisp", &rf1);
    wisp1.flash(program);
    wisp1.start();
    sim1.runUntil(snapAt);
    sim::SnapshotWriter w;
    wisp1.saveState(w);
    ASSERT_TRUE(w.writeFile(path));
    sim1.runUntil(endAt);
    Digest ref = digestOf(sim1, wisp1);

    sim::Simulator sim2(5);
    energy::RfHarvester rf2(30.0, 1.0);
    target::Wisp wisp2(sim2, "wisp", &rf2);
    wisp2.flash(program);
    sim::SnapshotReader r;
    ASSERT_TRUE(r.loadFile(path));
    sim::EventRearmer rearmer(sim2);
    wisp2.restoreState(r, rearmer);
    ASSERT_TRUE(r.ok());
    rearmer.flush();
    sim2.runUntil(endAt);
    expectSameDigest(digestOf(sim2, wisp2), ref);
    std::remove(path.c_str());
}

TEST(SnapshotResume, InPlaceRewindIsDeterministic)
{
    constexpr sim::Tick snapAt = 400 * sim::oneMs;
    constexpr sim::Tick endAt = 900 * sim::oneMs;
    sim::Simulator simulator(9);
    energy::RfHarvester rf(30.0, 1.0);
    target::Wisp wisp(simulator, "wisp", &rf);
    wisp.flash(apps::buildLinkedListApp());
    wisp.start();
    simulator.runUntil(snapAt);
    auto image = snapshotOf(wisp);
    simulator.runUntil(endAt);
    Digest first = digestOf(simulator, wisp);

    // Rewind the same world and replay: identical trajectory.
    ASSERT_TRUE(restoreInto(image, simulator, wisp));
    EXPECT_EQ(simulator.now(), snapAt);
    simulator.runUntil(endAt);
    expectSameDigest(digestOf(simulator, wisp), first);
}

TEST(SnapshotResume, RestoredRunCanBeResnapshotted)
{
    // Chained snapshots: snapshot a restored run and resume again.
    constexpr sim::Tick t1 = 300 * sim::oneMs;
    constexpr sim::Tick t2 = 600 * sim::oneMs;
    constexpr sim::Tick t3 = 900 * sim::oneMs;
    auto program = apps::buildLinkedListApp();

    sim::Simulator sim1(13);
    energy::RfHarvester rf1(30.0, 1.0);
    target::Wisp wisp1(sim1, "wisp", &rf1);
    wisp1.flash(program);
    wisp1.start();
    sim1.runUntil(t1);
    auto image1 = snapshotOf(wisp1);
    sim1.runUntil(t3);
    Digest ref = digestOf(sim1, wisp1);

    sim::Simulator sim2(13);
    energy::RfHarvester rf2(30.0, 1.0);
    target::Wisp wisp2(sim2, "wisp", &rf2);
    wisp2.flash(program);
    ASSERT_TRUE(restoreInto(image1, sim2, wisp2));
    sim2.runUntil(t2);
    auto image2 = snapshotOf(wisp2);

    sim::Simulator sim3(13);
    energy::RfHarvester rf3(30.0, 1.0);
    target::Wisp wisp3(sim3, "wisp", &rf3);
    wisp3.flash(program);
    ASSERT_TRUE(restoreInto(image2, sim3, wisp3));
    sim3.runUntil(t3);
    expectSameDigest(digestOf(sim3, wisp3), ref);
}

TEST(SnapshotResume, ActivityAppWithSensorRng)
{
    // The accelerometer draws the shared simulator RNG: equivalence
    // here proves the full engine state (mid-block) survives.
    constexpr sim::Tick snapAt = 700 * sim::oneMs;
    constexpr sim::Tick endAt = 2 * sim::oneSec;
    auto program = apps::buildActivityApp();

    sim::Simulator sim1(21);
    energy::RfHarvester rf1(30.0, 1.0);
    target::Wisp wisp1(sim1, "wisp", &rf1);
    wisp1.flash(program);
    wisp1.start();
    sim1.runUntil(snapAt);
    auto image = snapshotOf(wisp1);
    sim1.runUntil(endAt);
    Digest ref = digestOf(sim1, wisp1);
    std::uint64_t refSamples = wisp1.accelerometer().sampleCount();
    std::uint64_t refMoving = wisp1.accelerometer().movingSamples();

    sim::Simulator sim2(21);
    energy::RfHarvester rf2(30.0, 1.0);
    target::Wisp wisp2(sim2, "wisp", &rf2);
    wisp2.flash(program);
    ASSERT_TRUE(restoreInto(image, sim2, wisp2));
    sim2.runUntil(endAt);
    expectSameDigest(digestOf(sim2, wisp2), ref);
    EXPECT_EQ(wisp2.accelerometer().sampleCount(), refSamples);
    EXPECT_EQ(wisp2.accelerometer().movingSamples(), refMoving);
}

// ---------------------------------------------------------------
// Peripherals restored mid-transaction (bench-supply rig: direct
// MMIO pokes, as the peripheral unit tests do).
// ---------------------------------------------------------------

struct Rig
{
    sim::Simulator sim;
    energy::TheveninHarvester supply{3.0, 50.0};
    target::Wisp wisp;

    explicit Rig(std::uint64_t seed = 29)
        : sim(seed), wisp(sim, "wisp", &supply, nullptr)
    {
    }

    void
    poke(std::uint32_t addr, std::uint32_t value)
    {
        wisp.memoryMap().write32(addr, value);
    }

    std::uint32_t
    peek(std::uint32_t addr)
    {
        std::uint32_t v = 0;
        wisp.memoryMap().read32(addr, v);
        return v;
    }
};

TEST(SnapshotPeripheral, UartByteRestoredMidShift)
{
    Rig a;
    a.poke(m::uart0Tx, 0x5A);
    ASSERT_TRUE(a.wisp.uart().txBusy());
    // Let part of the byte shift out, then snapshot mid-wire.
    a.sim.runFor(a.wisp.uart().byteTime() / 2);
    ASSERT_TRUE(a.wisp.uart().txBusy());
    auto image = snapshotOf(a.wisp);

    std::vector<std::pair<std::uint8_t, sim::Tick>> gotA, gotB;
    a.wisp.uart().addTxListener(
        [&gotA](std::uint8_t b, sim::Tick t) {
            gotA.emplace_back(b, t);
        });
    a.sim.runFor(10 * a.wisp.uart().byteTime());
    ASSERT_EQ(gotA.size(), 1u);
    EXPECT_EQ(gotA[0].first, 0x5A);
    EXPECT_FALSE(a.wisp.uart().txBusy());

    Rig b;
    ASSERT_TRUE(restoreInto(image, b.sim, b.wisp));
    EXPECT_TRUE(b.wisp.uart().txBusy());
    b.wisp.uart().addTxListener(
        [&gotB](std::uint8_t b_, sim::Tick t) {
            gotB.emplace_back(b_, t);
        });
    b.sim.runFor(10 * b.wisp.uart().byteTime());
    // The interrupted byte completes at the identical tick.
    ASSERT_EQ(gotB.size(), 1u);
    EXPECT_EQ(gotB[0], gotA[0]);
    EXPECT_FALSE(b.wisp.uart().txBusy());
}

TEST(SnapshotPeripheral, I2cAccelReadRestoredMidTransaction)
{
    Rig a;
    auto accel_addr =
        static_cast<std::uint32_t>(a.wisp.accelerometer().address());
    a.poke(m::i2cAddr, accel_addr);
    a.poke(m::i2cReg, 0x00); // WHO_AM_I-style register
    a.poke(m::i2cCtrl, 1);   // read
    ASSERT_TRUE(a.wisp.i2c().busy());
    a.sim.runFor(a.wisp.i2c().transactionTime() / 2);
    ASSERT_TRUE(a.wisp.i2c().busy());
    auto image = snapshotOf(a.wisp);

    a.sim.runFor(2 * a.wisp.i2c().transactionTime());
    ASSERT_FALSE(a.wisp.i2c().busy());
    std::uint32_t statusA = a.peek(m::i2cStatus);
    std::uint32_t dataA = a.peek(m::i2cData);

    Rig b;
    ASSERT_TRUE(restoreInto(image, b.sim, b.wisp));
    EXPECT_TRUE(b.wisp.i2c().busy());
    b.sim.runFor(2 * b.wisp.i2c().transactionTime());
    ASSERT_FALSE(b.wisp.i2c().busy());
    EXPECT_EQ(b.peek(m::i2cStatus), statusA);
    EXPECT_EQ(b.peek(m::i2cData), dataA);
    EXPECT_EQ(b.sim.now(), a.sim.now());
}

TEST(SnapshotPeripheral, AdcConversionRestoredMidFlight)
{
    Rig a;
    a.poke(m::adcCtrl, 0); // channel 0: Vcap
    ASSERT_TRUE((a.peek(m::adcStatus) & 1u) != 0);
    auto image = snapshotOf(a.wisp);

    a.sim.runFor(sim::oneMs);
    ASSERT_TRUE((a.peek(m::adcStatus) & 2u) != 0);
    std::uint32_t valueA = a.peek(m::adcValue);

    Rig b;
    ASSERT_TRUE(restoreInto(image, b.sim, b.wisp));
    EXPECT_TRUE((b.peek(m::adcStatus) & 1u) != 0);
    b.sim.runFor(sim::oneMs);
    ASSERT_TRUE((b.peek(m::adcStatus) & 2u) != 0);
    EXPECT_EQ(b.peek(m::adcValue), valueA);
}

TEST(SnapshotPeripheral, GpioAndLedSurviveRoundTrip)
{
    Rig a;
    a.poke(m::gpioOut, 0b1011);
    a.poke(m::led, 1);
    a.poke(m::led, 0);
    a.poke(m::led, 1);
    auto image = snapshotOf(a.wisp);

    Rig b;
    ASSERT_TRUE(restoreInto(image, b.sim, b.wisp));
    EXPECT_EQ(b.wisp.gpio().output(), 0b1011u);
    EXPECT_EQ(b.peek(m::gpioOut), 0b1011u);
    EXPECT_TRUE(b.wisp.led().lit());
    EXPECT_EQ(b.wisp.led().blinkCount(),
              a.wisp.led().blinkCount());
}

TEST(SnapshotPeripheral, RfFrameRestoredMidAir)
{
    sim::Simulator simA(31);
    energy::TheveninHarvester supplyA{3.0, 50.0};
    rfid::RfChannel chanA(simA, "air");
    target::Wisp wispA(simA, "wisp", &supplyA, &chanA);

    auto poke = [](target::Wisp &w, std::uint32_t addr,
                   std::uint32_t v) { w.memoryMap().write32(addr, v); };
    poke(wispA, m::rfTxByte, 0x11);
    poke(wispA, m::rfTxByte, 0x22);
    poke(wispA, m::rfTxCtrl, 1);
    ASSERT_TRUE(wispA.rf()->txBusy());
    simA.runFor(sim::oneUs);
    ASSERT_TRUE(wispA.rf()->txBusy());
    auto image = snapshotOf(wispA);

    simA.runFor(10 * sim::oneMs);
    ASSERT_FALSE(wispA.rf()->txBusy());
    std::uint64_t txA = wispA.rf()->framesTransmitted();

    sim::Simulator simB(31);
    energy::TheveninHarvester supplyB{3.0, 50.0};
    rfid::RfChannel chanB(simB, "air");
    target::Wisp wispB(simB, "wisp", &supplyB, &chanB);
    ASSERT_TRUE(restoreInto(image, simB, wispB));
    EXPECT_TRUE(wispB.rf()->txBusy());
    simB.runFor(10 * sim::oneMs);
    EXPECT_FALSE(wispB.rf()->txBusy());
    EXPECT_EQ(wispB.rf()->framesTransmitted(), txA);
    EXPECT_EQ(simB.now(), simA.now());
}

TEST(SnapshotPeripheral, RfPresenceMismatchIsRejected)
{
    sim::Simulator simA(31);
    energy::TheveninHarvester supplyA{3.0, 50.0};
    rfid::RfChannel chanA(simA, "air");
    target::Wisp wispA(simA, "wisp", &supplyA, &chanA);
    auto image = snapshotOf(wispA);

    // Restoring onto a build without the RF front end must fail
    // loudly, not half-restore.
    Rig b;
    EXPECT_FALSE(restoreInto(image, b.sim, b.wisp));
}

TEST(SnapshotPeripheral, MidTransactionUnderRealProgram)
{
    // The activity firmware polls the accelerometer over I2C; catch
    // a transaction in flight and prove the restored world finishes
    // it identically.
    auto program = apps::buildActivityApp();
    sim::Simulator sim1(37);
    energy::RfHarvester rf1(30.0, 1.0);
    target::Wisp wisp1(sim1, "wisp", &rf1);
    wisp1.flash(program);
    wisp1.start();

    sim::Tick limit = 5 * sim::oneSec;
    while (!wisp1.i2c().busy() && sim1.now() < limit)
        sim1.runFor(5 * sim::oneUs);
    ASSERT_TRUE(wisp1.i2c().busy())
        << "activity app never touched the accelerometer";
    auto image = snapshotOf(wisp1);
    sim::Tick endAt = sim1.now() + 500 * sim::oneMs;
    sim1.runUntil(endAt);
    Digest ref = digestOf(sim1, wisp1);

    sim::Simulator sim2(37);
    energy::RfHarvester rf2(30.0, 1.0);
    target::Wisp wisp2(sim2, "wisp", &rf2);
    wisp2.flash(program);
    ASSERT_TRUE(restoreInto(image, sim2, wisp2));
    EXPECT_TRUE(wisp2.i2c().busy());
    sim2.runUntil(endAt);
    expectSameDigest(digestOf(sim2, wisp2), ref);
}

// ---------------------------------------------------------------------
// EDB board: supervision state travels with the world

namespace {

/** Target + EDB with tweaked (non-default) supervision budgets. */
struct BoardRig
{
    sim::Simulator sim{55};
    energy::TheveninHarvester supply{3.0, 200.0};
    target::Wisp wisp;
    edbdbg::EdbBoard board;

    explicit BoardRig(const edbdbg::EdbConfig &cfg)
        : wisp(sim, "wisp", &supply, nullptr),
          board(sim, "edb", wisp, nullptr, cfg)
    {
        wisp.flash(isa::assemble(runtime::programHeader() + R"(
main:
    la   r0, 0x5000
    la   r1, 0xCAFE
    stw  r1, [r0]
    li   r1, 7
    call edb_assert_fail
    halt
)" + runtime::libedbSource()));
        wisp.start();
    }
};

edbdbg::EdbConfig
tweakedConfig()
{
    edbdbg::EdbConfig cfg;
    cfg.readRetryMax = 7; // non-default: must survive the round trip
    cfg.linkProbeMax = 3;
    cfg.linkProbeTimeout = 15 * sim::oneMs;
    return cfg;
}

void
saveBoardWorld(const BoardRig &rig, sim::SnapshotWriter &w)
{
    rig.wisp.saveState(w);
    rig.board.saveState(w);
}

bool
restoreBoardWorld(const std::vector<std::uint8_t> &image,
                  BoardRig &rig)
{
    sim::SnapshotReader r;
    if (!r.load(image))
        return false;
    sim::EventRearmer rearmer(rig.sim);
    rig.wisp.restoreState(r, rearmer);
    rig.board.restoreState(r, rearmer);
    if (!r.ok())
        return false;
    rearmer.flush();
    return true;
}

} // namespace

TEST(SnapshotEdbBoard, SupervisionCountersSurviveRoundTrip)
{
    BoardRig a(tweakedConfig());
    ASSERT_TRUE(a.board.waitForSession(sim::oneSec));
    ASSERT_EQ(a.board.session()->read32(0x5000).value_or(0),
              0xCAFEu);
    // Exercise the retry machinery so the counters are non-trivial:
    // a dead link burns the whole (tweaked) retry budget.
    sim::FaultPlan dead;
    dead.uartDropProb = 1.0;
    sim::FaultInjector inj(a.sim, "inj", dead);
    a.board.injectFaults(&inj);
    EXPECT_FALSE(
        a.board.session()->read32(0x5000, 100 * sim::oneMs)
            .has_value());
    a.board.injectFaults(nullptr);
    ASSERT_GE(a.board.linkStats().readRetries, 1u);

    sim::SnapshotWriter w;
    saveBoardWorld(a, w);
    std::vector<std::uint8_t> image = w.finish();

    // Fresh rig, same config, never started a session of its own.
    BoardRig b(tweakedConfig());
    ASSERT_TRUE(restoreBoardWorld(image, b));

    // Mid-episode restores must not silently reset supervision
    // state: every link-health counter travels.
    const edbdbg::LinkStats &sa = a.board.linkStats();
    const edbdbg::LinkStats &sb = b.board.linkStats();
    EXPECT_EQ(sb.probes, sa.probes);
    EXPECT_EQ(sb.ackRetransmits, sa.ackRetransmits);
    EXPECT_EQ(sb.readRetries, sa.readRetries);
    EXPECT_EQ(sb.writeRetries, sa.writeRetries);
    EXPECT_EQ(sb.resumeRetries, sa.resumeRetries);
    EXPECT_EQ(sb.degradedEpisodes, sa.degradedEpisodes);
    EXPECT_EQ(sb.abortedEpisodes, sa.abortedEpisodes);
    EXPECT_EQ(b.board.lastAbortReason(), a.board.lastAbortReason());
    EXPECT_EQ(b.board.lastSavedVolts(), a.board.lastSavedVolts());
    EXPECT_EQ(b.board.lastRestoredVolts(),
              a.board.lastRestoredVolts());
    EXPECT_EQ(b.board.protocolEngine().stats().framesOk,
              a.board.protocolEngine().stats().framesOk);
    EXPECT_EQ(b.board.protocolEngine().stats().crcErrors,
              a.board.protocolEngine().stats().crcErrors);

    // The restored board is alive, not wedged: its watchdog notices
    // the in-flight session did not travel and recovers the episode
    // (bounded), rather than hanging forever.
    b.board.pumpFor(500 * sim::oneMs);
    EXPECT_GE(b.board.linkStats().abortedEpisodes +
                  b.board.linkStats().degradedEpisodes,
              sa.abortedEpisodes + sa.degradedEpisodes);
}

TEST(SnapshotEdbBoard, SupervisionConfigMismatchIsRejected)
{
    BoardRig a(tweakedConfig());
    ASSERT_TRUE(a.board.waitForSession(sim::oneSec));
    sim::SnapshotWriter w;
    saveBoardWorld(a, w);
    std::vector<std::uint8_t> image = w.finish();

    // A different retry budget is a different supervision contract:
    // restoring onto it must fail loudly, not adopt the old counters
    // under new rules.
    edbdbg::EdbConfig other = tweakedConfig();
    other.readRetryMax = 2;
    BoardRig b(other);
    EXPECT_FALSE(restoreBoardWorld(image, b));

    // Same config restores fine.
    BoardRig c(tweakedConfig());
    EXPECT_TRUE(restoreBoardWorld(image, c));
}

// ---------------------------------------------------------------
// Malformed but CRC-valid images: every count read from an image is
// bounded by the bytes left or checked against the device, so
// restore fails promptly instead of allocating or spinning.
// ---------------------------------------------------------------

/** Load a writer's sealed image into `r`. */
void
loadImage(sim::SnapshotReader &r, const sim::SnapshotWriter &w)
{
    ASSERT_TRUE(r.load(w.finish()));
}

TEST(SnapshotBounds, AuditorRecordCountIsBounded)
{
    Rig rig;
    mem::NvAuditor aud = rig.wisp.makeAuditor();
    for (bool huge_findings : {false, true}) {
        sim::SnapshotWriter w;
        w.section("nvau");
        for (unsigned i = 0; i < mem::NvAuditor::numRegs; ++i) {
            w.boolean(false);
            w.u32(0);
        }
        if (huge_findings)
            w.u32(0); // no records, then a huge findings count
        w.u32(0xFFFFFFFFu);
        w.u64(0);
        sim::SnapshotReader r;
        loadImage(r, w);
        largestAlloc = 0;
        aud.restoreState(r);
        EXPECT_FALSE(r.ok());
        EXPECT_LT(largestAlloc, 4096u);
        EXPECT_TRUE(aud.findings().empty());
    }
}

TEST(SnapshotBounds, ScheduleLogCountIsBounded)
{
    sim::SnapshotWriter w;
    w.section("sched");
    w.u32(0xFFFFFFFFu);
    w.tick(5);
    sim::SnapshotReader r;
    loadImage(r, w);
    sim::ScheduleLog log;
    log.record(1, 2, 3.0);
    largestAlloc = 0;
    log.restoreState(r);
    EXPECT_FALSE(r.ok());
    EXPECT_LT(largestAlloc, 4096u);
    EXPECT_EQ(log.entries().size(), 1u); // untouched
}

TEST(SnapshotBounds, NvRegionWearCountMismatchFails)
{
    Rig rig;
    mem::NvRegion &fram = rig.wisp.framRegion();
    sim::SnapshotWriter w;
    static_cast<const mem::Ram &>(fram).saveState(w);
    w.section("nvrg");
    w.u64(~std::uint64_t{0} - 5); // not the device's word count
    sim::SnapshotReader r;
    loadImage(r, w);
    auto start = std::chrono::steady_clock::now();
    fram.restoreState(r);
    EXPECT_FALSE(r.ok());
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(10));
}

TEST(SnapshotBounds, PowerLoadCountMismatchFails)
{
    // A load count that disagrees with the device is rejected, not
    // skipped with its bytes left to misparse as the next fields.
    Rig a;
    Rig b;
    b.wisp.power().addLoad("extra", 1e-6, false);
    sim::SnapshotWriter w;
    a.wisp.power().saveState(w);
    sim::SnapshotReader r;
    loadImage(r, w);
    sim::EventRearmer rearmer(b.sim);
    b.wisp.power().restoreState(r, rearmer);
    EXPECT_FALSE(r.ok());

    sim::SnapshotReader same;
    loadImage(same, w);
    Rig c;
    sim::EventRearmer rearmer_c(c.sim);
    c.wisp.power().restoreState(same, rearmer_c);
    EXPECT_TRUE(same.ok());
}

// ---------------------------------------------------------------
// Mutation sweep: every structural payload byte of a full world
// image (Wisp with RF, auditor, EDB board), set to 0x00 and to
// 0xFF with the CRC resealed, restored into a fresh world. Restore
// may succeed or fail, but must return without crashing, hanging or
// allocating more than the image.
// ---------------------------------------------------------------

/** Target with RF front end, NV auditor and EDB board. */
struct FullRig
{
    sim::Simulator sim{61};
    energy::RfHarvester supply{30.0, 1.0};
    rfid::RfChannel chan{sim, "air"};
    target::Wisp wisp;
    mem::NvAuditor aud;
    edbdbg::EdbBoard board;

    explicit FullRig(const isa::Program &program)
        : wisp(sim, "wisp", &supply, &chan, checkpointing()),
          aud(wisp.makeAuditor()), board(sim, "edb", wisp, &chan)
    {
        wisp.attachAuditor(&aud);
        wisp.flash(program);
    }

    static target::WispConfig
    checkpointing()
    {
        target::WispConfig cfg;
        cfg.mcu.checkpointingEnabled = true;
        return cfg;
    }
};

constexpr std::size_t headerBytes = 20;

std::uint64_t
le64(const std::vector<std::uint8_t> &b, std::size_t at)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(b[at + i]) << (8 * i);
    return v;
}

std::uint32_t
le32(const std::vector<std::uint8_t> &b, std::size_t at)
{
    return static_cast<std::uint32_t>(le64(b, at) & 0xFFFFFFFFu);
}

TEST(SnapshotMutation, EveryStructuralByteRestoresSafely)
{
    const isa::Program program =
        isa::assemble(fleet::Fleet::defaultFirmware().listing);
    FullRig a(program);
    a.wisp.start();
    a.sim.runUntil(500 * sim::oneMs);
    a.wisp.memoryMap().write32(m::rfTxByte, 0x11);
    a.wisp.memoryMap().write32(m::rfTxCtrl, 1);
    sim::SnapshotWriter w;
    a.wisp.saveState(w);
    const std::size_t audStart = w.finish().size();
    a.aud.saveState(w);
    a.board.saveState(w);
    const std::vector<std::uint8_t> image = w.finish();
    ASSERT_TRUE(a.aud.shadowValid());

    // Content blobs: SRAM and FRAM (after each "ram" section marker
    // and its u64 length) and the auditor's shadow (parsed from the
    // "nvau" section layout).
    std::vector<std::pair<std::size_t, std::size_t>> blobs;
    const std::uint8_t ramTag[] = {0xA5, 3, 'r', 'a', 'm'};
    for (auto it = image.begin();
         (it = std::search(it, image.end(), std::begin(ramTag),
                           std::end(ramTag))) != image.end();) {
        std::size_t at = static_cast<std::size_t>(it - image.begin()) + 5;
        std::size_t len = le64(image, at);
        blobs.emplace_back(at + 8, at + 8 + len);
        it = image.begin() + static_cast<std::ptrdiff_t>(at + 8 + len);
    }
    ASSERT_EQ(blobs.size(), 2u);
    std::size_t at = audStart + 6 + mem::NvAuditor::numRegs * 5;
    at += 4 + 20 * le32(image, at);
    at += 4 + 28 * le32(image, at);
    at += 4 * 8 + 1 + 8;
    std::size_t shadowLen = le64(image, at);
    ASSERT_GT(shadowLen, 0u);
    blobs.emplace_back(at + 8, at + 8 + shadowLen);

    auto structural = [&blobs](std::size_t off) {
        for (const auto &[lo, hi] : blobs) {
            if (off >= lo && off < hi)
                return false;
        }
        return true;
    };

    std::size_t mutations = 0, restored = 0;
    for (std::size_t off = headerBytes; off < image.size(); ++off) {
        if (!structural(off))
            continue;
        for (std::uint8_t value : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
            if (image[off] == value)
                continue;
            std::vector<std::uint8_t> bad = image;
            bad[off] = value;
            std::uint32_t crc = sim::crc32(bad.data() + headerBytes,
                                           bad.size() - headerBytes);
            for (int i = 0; i < 4; ++i)
                bad[16 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
            sim::SnapshotReader r;
            ASSERT_TRUE(r.load(std::move(bad)));
            FullRig b(program);
            largestAlloc = 0;
            sim::EventRearmer rearmer(b.sim);
            b.wisp.restoreState(r, rearmer);
            b.aud.restoreState(r);
            b.board.restoreState(r, rearmer);
            ASSERT_LE(largestAlloc, image.size()) << "offset " << off;
            ++mutations;
            restored += r.ok() ? 1 : 0;
        }
    }
    EXPECT_GT(mutations, 1000u);
    EXPECT_LT(restored, mutations); // the sweep does reach the checks
}

} // namespace
