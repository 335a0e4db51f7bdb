/**
 * @file
 * Unit tests for the EDB board's building blocks: connections, ADC,
 * charge circuit, protocol engine, passive monitors, breakpoints.
 */

#include <gtest/gtest.h>

#include "apps/activity.hh"
#include "baseline/source_meter.hh"
#include "edb/board.hh"
#include "edb/charge_circuit.hh"
#include "edb/connection.hh"
#include "edb/edb_adc.hh"
#include "edb/protocol.hh"
#include "energy/harvester.hh"
#include "isa/assembler.hh"
#include "runtime/libedb.hh"
#include "runtime/protocol_defs.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"

using namespace edb;
using namespace edb::edbdbg;
namespace proto = edb::runtime::proto;

namespace {

TEST(Connections, FullHarnessHasTwelveWires)
{
    sim::Rng rng(1);
    ConnectionSet pins(rng);
    EXPECT_EQ(pins.all().size(), 12u); // one per Fig 5 wire
    EXPECT_NE(pins.find("UART TX"), nullptr);
    EXPECT_NE(pins.find("Capacitor sense, manipulate"), nullptr);
    EXPECT_EQ(pins.find("Bogus"), nullptr);
}

TEST(Connections, WorstCaseTotalIsSubMicroamp)
{
    sim::Rng rng(2);
    ConnectionSet pins(rng);
    double worst = pins.worstCaseTotal(2.4);
    EXPECT_GT(worst, 100e-9);
    EXPECT_LT(worst, 1.2e-6); // paper: 836.51 nA, "0.2%"
    // Against the 0.5 mA active current: well under 1%.
    EXPECT_LT(worst / 0.5e-3, 0.01);
}

TEST(Connections, DigitalLinesLeakMoreWhenDrivenHigh)
{
    sim::Rng rng(3);
    ConnectionSet pins(rng);
    auto *uart_tx = pins.find("UART TX");
    ASSERT_NE(uart_tx, nullptr);
    double high = uart_tx->current(LineState::High, 2.4);
    double low = uart_tx->current(LineState::Low, 0.0);
    EXPECT_GT(high, 20e-9); // tens of nA into the buffer
    EXPECT_LT(low, 0.0);    // small back-flow
    EXPECT_GT(high, std::abs(low));
}

TEST(Connections, IdleDrainTracksLineStates)
{
    sim::Rng rng(4);
    ConnectionSet pins(rng);
    double idle = pins.totalDrain(2.4);
    auto *marker = pins.find("Code marker 0");
    marker->setState(LineState::High);
    double with_marker_high = pins.totalDrain(2.4);
    EXPECT_GT(with_marker_high, idle + 20e-9);
}

TEST(SourceMeter, MeasurementTracksModelWithNoise)
{
    sim::Rng rng(5);
    ConnectionSet pins(rng);
    baseline::SourceMeter meter(rng);
    auto *line = pins.find("RF RX");
    auto samples =
        meter.measureMany(*line, LineState::High, 2.4, 200);
    double truth = line->current(LineState::High, 2.4);
    EXPECT_NEAR(samples.summary().mean(), truth,
                std::abs(truth) * 0.1);
    EXPECT_GT(samples.summary().stddev(), 0.0);
}

TEST(EdbAdc, LsbIsAboutOneMillivolt)
{
    sim::Rng rng(6);
    EdbAdc adc(rng);
    EXPECT_NEAR(adc.lsbVolts(), 1e-3, 0.01e-3);
    EXPECT_EQ(adc.codeFor(0.0), 0u);
    EXPECT_EQ(adc.codeFor(10.0), 4095u);
    EXPECT_NEAR(adc.voltsFor(adc.codeFor(2.4)), 2.4, 2e-3);
}

TEST(EdbAdc, NoiseStatistics)
{
    sim::Rng rng(7);
    EdbAdcConfig config;
    config.noiseSigmaVolts = 5e-3;
    EdbAdc adc(rng, config);
    trace::SampleSet readings;
    for (int i = 0; i < 2000; ++i)
        readings.add(adc.sampleVolts(2.0));
    EXPECT_NEAR(readings.summary().mean(), 2.0, 1e-3);
    EXPECT_NEAR(readings.summary().stddev(), 5e-3, 1.5e-3);
}

struct ChargeRig
{
    sim::Simulator sim{81};
    energy::TheveninHarvester weak{3.0, 4000.0};
    energy::PowerSystemConfig power_config;
    std::unique_ptr<energy::PowerSystem> power;
    EdbAdc adc{sim.rng()};
    std::unique_ptr<ChargeCircuit> circuit;

    explicit ChargeRig(double initial_volts)
    {
        power_config.initialVolts = initial_volts;
        power_config.harvestNoiseSigma = 0.0;
        power = std::make_unique<energy::PowerSystem>(
            sim, "power", power_config, &weak);
        circuit = std::make_unique<ChargeCircuit>(sim, "charge",
                                                  *power, adc);
        power->start();
    }
};

TEST(ChargeCircuit, ChargesUpToTarget)
{
    ChargeRig rig(1.0);
    bool done = false;
    double v_at_done = 0.0;
    rig.circuit->rampTo(2.4, 0.0, [&](RampResult) {
        done = true;
        v_at_done = rig.power->voltageNoAdvance();
    });
    rig.sim.runFor(sim::oneSec);
    EXPECT_TRUE(done);
    EXPECT_FALSE(rig.circuit->active());
    // Measured at completion: the weak ambient source keeps charging
    // afterwards, which is not the circuit's doing.
    EXPECT_NEAR(v_at_done, 2.4, 0.02);
}

TEST(ChargeCircuit, DischargesDownToTarget)
{
    ChargeRig rig(2.9);
    bool done = false;
    double v_at_done = 0.0;
    rig.circuit->rampTo(2.0, 0.0, [&](RampResult) {
        done = true;
        v_at_done = rig.power->voltageNoAdvance();
    });
    rig.sim.runFor(sim::oneSec);
    EXPECT_TRUE(done);
    EXPECT_NEAR(v_at_done, 2.0, 0.02);
}

TEST(ChargeCircuit, StopMarginLeavesPositiveBias)
{
    ChargeRig rig(2.9);
    bool done = false;
    double v_at_done = 0.0;
    rig.circuit->rampTo(2.0, 0.06, [&](RampResult) {
        done = true;
        v_at_done = rig.power->voltageNoAdvance();
    });
    rig.sim.runFor(sim::oneSec);
    ASSERT_TRUE(done);
    EXPECT_GT(v_at_done, 2.0);
    EXPECT_LT(v_at_done, 2.10);
}

TEST(ChargeCircuit, AlreadyAtTargetCompletesQuickly)
{
    ChargeRig rig(2.2);
    bool done = false;
    rig.circuit->rampTo(2.2, 0.05,
                        [&done](RampResult) { done = true; });
    // ADC noise may demand one or two control iterations.
    rig.sim.runFor(5 * sim::oneMs);
    EXPECT_TRUE(done);
}

TEST(ChargeCircuit, AbortCancelsWithoutCallback)
{
    ChargeRig rig(2.9);
    bool done = false;
    rig.circuit->rampTo(1.9, 0.0,
                        [&done](RampResult) { done = true; });
    rig.sim.runFor(2 * sim::oneMs);
    rig.circuit->abort();
    rig.sim.runFor(sim::oneSec);
    EXPECT_FALSE(done);
    EXPECT_FALSE(rig.circuit->active());
}

TEST(ChargeCircuit, InactiveCircuitIsHighImpedance)
{
    // Twin power systems, one with the (idle) circuit attached:
    // identical trajectories.
    ChargeRig with_circuit(2.0);
    sim::Simulator bare_sim{81};
    energy::TheveninHarvester weak(3.0, 4000.0);
    energy::PowerSystemConfig config;
    config.initialVolts = 2.0;
    config.harvestNoiseSigma = 0.0;
    energy::PowerSystem bare(bare_sim, "bare", config, &weak);
    bare.start();
    with_circuit.sim.runFor(100 * sim::oneMs);
    bare_sim.runFor(100 * sim::oneMs);
    EXPECT_NEAR(with_circuit.power->voltage(), bare.voltage(), 1e-6);
}

void
feedFrame(ProtocolEngine &engine,
          const std::vector<std::uint8_t> &payload)
{
    for (std::uint8_t b : buildFrame(payload))
        engine.onByte(b);
}

TEST(ProtocolEngine, ParsesAssertFrame)
{
    ProtocolEngine engine;
    std::uint16_t got = 0;
    engine.handlers.assertFail = [&got](std::uint16_t id) {
        got = id;
    };
    auto frame = buildFrame({proto::msgAssertFail, 0x34, 0x12});
    for (std::size_t i = 0; i + 1 < frame.size(); ++i)
        engine.onByte(frame[i]);
    EXPECT_TRUE(engine.midFrame());
    engine.onByte(frame.back()); // CRC completes the frame
    EXPECT_EQ(got, 0x1234u);
    EXPECT_FALSE(engine.midFrame());
    EXPECT_EQ(engine.stats().framesOk, 1u);
}

TEST(ProtocolEngine, ParsesGuardAndBkptFrames)
{
    ProtocolEngine engine;
    int begins = 0, ends = 0;
    std::uint16_t bkpt = 0;
    engine.handlers.guardBegin = [&begins] { ++begins; };
    engine.handlers.guardEnd = [&ends] { ++ends; };
    engine.handlers.bkptHit = [&bkpt](std::uint16_t id) {
        bkpt = id;
    };
    feedFrame(engine, {proto::msgGuardBegin});
    feedFrame(engine, {proto::msgGuardEnd});
    feedFrame(engine, {proto::msgBkptHit, 0xFF, 0xFF});
    EXPECT_EQ(begins, 1);
    EXPECT_EQ(ends, 1);
    EXPECT_EQ(bkpt, proto::energyBkptId);
}

TEST(ProtocolEngine, ParsesPrintfWithArgs)
{
    ProtocolEngine engine;
    std::string text;
    engine.handlers.printfText = [&text](const std::string &s) {
        text = s;
    };
    std::vector<std::uint8_t> payload{proto::msgPrintf, 2};
    for (std::uint32_t arg : {42u, 0xFFFFFFF9u}) {
        for (int b = 0; b < 4; ++b)
            payload.push_back(
                static_cast<std::uint8_t>(arg >> (8 * b)));
    }
    for (char c : std::string("v=%u s=%d!"))
        payload.push_back(static_cast<std::uint8_t>(c));
    payload.push_back(0);
    feedFrame(engine, payload);
    EXPECT_EQ(text, "v=42 s=-7!");
}

TEST(ProtocolEngine, IgnoresStrayBytes)
{
    ProtocolEngine engine;
    int events = 0;
    engine.handlers.guardBegin = [&events] { ++events; };
    engine.onByte(0xEE);
    engine.onByte(0x00);
    feedFrame(engine, {proto::msgGuardBegin});
    EXPECT_EQ(events, 1);
    EXPECT_EQ(engine.stats().strayBytes, 2u);
}

TEST(ProtocolEngine, RejectsBadCrc)
{
    ProtocolEngine engine;
    int events = 0;
    engine.handlers.guardBegin = [&events] { ++events; };
    auto frame = buildFrame({proto::msgGuardBegin});
    frame.back() ^= 0x01; // corrupt the CRC
    for (std::uint8_t b : frame)
        engine.onByte(b);
    EXPECT_EQ(events, 0);
    EXPECT_EQ(engine.stats().crcErrors, 1u);
    feedFrame(engine, {proto::msgGuardBegin}); // parser recovered
    EXPECT_EQ(events, 1);
}

TEST(ProtocolEngine, DroppedByteCannotDestroyTheNextFrame)
{
    // A frame that loses one byte on the wire slides the NEXT
    // frame's SYNC into its CRC slot. The parser must recognise
    // that and resume at the following length byte, so one lost
    // byte costs exactly one frame.
    ProtocolEngine engine;
    int begins = 0;
    engine.handlers.guardBegin = [&begins] { ++begins; };
    auto damaged = buildFrame({proto::msgGuardEnd});
    damaged.erase(damaged.begin() + 2); // drop the payload byte
    for (std::uint8_t b : damaged)
        engine.onByte(b);
    feedFrame(engine, {proto::msgGuardBegin}); // back-to-back frame
    EXPECT_EQ(begins, 1);
    EXPECT_EQ(engine.stats().crcErrors, 1u);
    EXPECT_EQ(engine.stats().resyncs, 1u);
}

TEST(ProtocolEngine, RepeatedSyncBytesPrecedeAFrame)
{
    ProtocolEngine engine;
    int begins = 0;
    engine.handlers.guardBegin = [&begins] { ++begins; };
    engine.onByte(proto::syncByte); // idle fill
    engine.onByte(proto::syncByte);
    feedFrame(engine, {proto::msgGuardBegin});
    EXPECT_EQ(begins, 1);
}

TEST(ProtocolEngine, ResetDropsPartialFrame)
{
    ProtocolEngine engine;
    std::uint16_t got = 99;
    int begins = 0;
    engine.handlers.assertFail = [&got](std::uint16_t id) {
        got = id;
    };
    engine.handlers.guardBegin = [&begins] { ++begins; };
    auto partial = buildFrame({proto::msgAssertFail, 0x01, 0x00});
    for (std::size_t i = 0; i < 3; ++i) // sync, len, one byte
        engine.onByte(partial[i]);
    EXPECT_TRUE(engine.midFrame());
    engine.reset();
    EXPECT_FALSE(engine.midFrame());
    feedFrame(engine, {proto::msgGuardBegin}); // parses cleanly
    EXPECT_EQ(begins, 1);
    EXPECT_EQ(got, 99u);
}

TEST(ProtocolEngine, InterByteTimeoutResyncs)
{
    ProtocolEngine engine;
    engine.setInterByteTimeout(2 * sim::oneMs);
    std::uint16_t got = 0;
    engine.handlers.assertFail = [&got](std::uint16_t id) {
        got = id;
    };
    auto frame = buildFrame({proto::msgAssertFail, 0x34, 0x12});
    sim::Tick t = 0;
    // Deliver half the frame, stall past the timeout, then deliver
    // a fresh complete frame: the stale prefix must be discarded.
    for (std::size_t i = 0; i < 3; ++i)
        engine.onByte(frame[i], t += 10 * sim::oneUs);
    t += 10 * sim::oneMs; // link stall
    for (std::uint8_t b : frame)
        engine.onByte(b, t += 10 * sim::oneUs);
    EXPECT_EQ(got, 0x1234u);
    EXPECT_GE(engine.stats().resyncs, 1u);
}

struct FormatCase
{
    const char *label;
    const char *fmt;
    std::vector<std::uint32_t> args;
    const char *expected;
};

// Without this, GoogleTest prints a case as its raw bytes, which hold
// pointers and so change from run to run; CTest builds the test names
// from that printout.
void PrintTo(const FormatCase &c, std::ostream *os)
{
    *os << c.label;
}

class PrintfFormat : public ::testing::TestWithParam<FormatCase>
{};

TEST_P(PrintfFormat, Renders)
{
    const auto &c = GetParam();
    EXPECT_EQ(formatPrintf(c.fmt, c.args), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PrintfFormat,
    ::testing::Values(
        FormatCase{"plain", "plain", {}, "plain"},
        FormatCase{"signed", "%d", {5}, "5"},
        FormatCase{"signed_negative", "%d", {0xFFFFFFFF}, "-1"},
        FormatCase{"unsigned_max", "%u", {0xFFFFFFFF}, "4294967295"},
        FormatCase{"hex", "%x", {255}, "ff"},
        FormatCase{"chars", "%c%c", {'h', 'i'}, "hi"},
        FormatCase{"escaped_percent", "100%%", {}, "100%"},
        FormatCase{"unknown_conversion", "%q", {7}, "%q"}, // passes through
        FormatCase{"missing_arg", "%d %d", {1}, "1 0"},    // reads 0
        FormatCase{"trailing_percent", "trail%", {}, "trail%"} // lone %
        ));

struct BoardRig
{
    sim::Simulator sim{91};
    energy::RfHarvester rf{30.0, 1.0};
    target::Wisp wisp;
    EdbBoard board;

    BoardRig() : wisp(sim, "wisp", &rf, nullptr),
                 board(sim, "edb", wisp)
    {}
};

TEST(EdbBoard, EnergyStreamGatedByTraceFlag)
{
    BoardRig rig;
    rig.wisp.start();
    rig.sim.runFor(50 * sim::oneMs);
    EXPECT_EQ(rig.board.traceBuffer().countOf(
                  trace::Kind::EnergySample),
              0u);
    ASSERT_TRUE(rig.board.setStream("energy", true));
    rig.sim.runFor(50 * sim::oneMs);
    EXPECT_NEAR(double(rig.board.traceBuffer().countOf(
                    trace::Kind::EnergySample)),
                50.0, 10.0);
    EXPECT_FALSE(rig.board.setStream("nonsense", true));
}

TEST(EdbBoard, PassiveLeakageBarelyAffectsChargeTime)
{
    // Charge to turn-on with and without EDB attached; the paper's
    // claim is that passive monitoring is energy-interference-free.
    auto charge_time = [](bool attach_edb) {
        sim::Simulator simulator(92);
        energy::RfHarvester rf(30.0, 1.0);
        target::Wisp wisp(simulator, "wisp", &rf, nullptr);
        std::unique_ptr<EdbBoard> board;
        if (attach_edb)
            board = std::make_unique<EdbBoard>(simulator, "edb",
                                               wisp);
        wisp.flash(isa::assemble(
            ".org 0x4000\nmain:\n    halt\n"));
        wisp.start();
        while (wisp.power().bootCount() == 0 &&
               simulator.now() < 5 * sim::oneSec) {
            simulator.runFor(sim::oneMs);
        }
        return simulator.now();
    };
    double bare = sim::millisFromTicks(charge_time(false));
    double attached = sim::millisFromTicks(charge_time(true));
    EXPECT_NEAR(attached, bare, bare * 0.01 + 2.0);
}

TEST(EdbBoard, WatchpointFilterSelectsIds)
{
    BoardRig rig;
    EXPECT_TRUE(rig.board.watchpointEnabled(3)); // default: all
    rig.board.disableWatchpoint(3);
    EXPECT_FALSE(rig.board.watchpointEnabled(3));
    EXPECT_TRUE(rig.board.watchpointEnabled(4));
    rig.board.enableWatchpoint(3);
    EXPECT_TRUE(rig.board.watchpointEnabled(3));
}

TEST(EdbBoard, CombinedBreakpointSkipsWhenEnergyHigh)
{
    sim::Simulator simulator(93);
    energy::TheveninHarvester supply(3.0, 200.0);
    target::Wisp wisp(simulator, "wisp", &supply, nullptr);
    EdbBoard board(simulator, "edb", wisp);
    wisp.flash(isa::assemble(runtime::programHeader() + R"(
main:
    la   r5, 0x5000
    li   r6, 0
loop:
    addi r6, r6, 1
    stw  r6, [r5]
    li   r1, 2
    call edb_breakpoint
    br   loop
)" + runtime::libedbSource()));
    // Combined breakpoint: only below 1.9 V -- the bench supply
    // keeps Vcap near 3.0 V, so it must keep auto-resuming.
    board.enableCodeBreakpoint(2, 1.9);
    wisp.start();
    EXPECT_FALSE(board.waitForSession(300 * sim::oneMs));
    EXPECT_GT(wisp.mcu().debugRead32(0x5000), 2u);
    EXPECT_EQ(board.breakpointCount(), 0u);
}

TEST(EdbBoard, BreakInFailsWhenTargetOff)
{
    BoardRig rig;
    // Never started: target is off.
    EXPECT_FALSE(rig.board.breakIn(10 * sim::oneMs));
}

TEST(EdbBoard, PowerEventsAlwaysTraced)
{
    BoardRig rig;
    rig.wisp.flash(isa::assemble(".org 0x4000\nmain:\n    br main\n"));
    rig.wisp.start();
    rig.sim.runFor(2 * sim::oneSec);
    auto events =
        rig.board.traceBuffer().ofKind(trace::Kind::PowerEvent);
    ASSERT_GE(events.size(), 2u);
    EXPECT_EQ(events[0].text, "turn-on");
    // Voltage recorded at the transition.
    EXPECT_NEAR(events[0].a, 2.4, 0.05);
}

} // namespace
