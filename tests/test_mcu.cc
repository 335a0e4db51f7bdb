/**
 * @file
 * Unit tests of the EH32 MCU: instruction semantics, faults, reboot
 * behaviour, the hardware checkpoint unit and the debug interrupt.
 */

#include <gtest/gtest.h>

#include "apps/linked_list.hh"
#include "energy/harvester.hh"
#include "isa/assembler.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"

using namespace edb;

namespace {

/** Wisp on a strong supply; helper to run a program to HALT. */
struct McuRig
{
    sim::Simulator sim{17};
    energy::TheveninHarvester supply{3.0, 50.0};
    target::Wisp wisp;

    explicit McuRig(target::WispConfig config = {})
        : wisp(sim, "wisp", &supply, nullptr, config)
    {}

    /** Run `body` (with implicit .org/.entry) until HALT/timeout. */
    mcu::Mcu &
    run(const std::string &body,
        sim::Tick timeout = 500 * sim::oneMs)
    {
        wisp.flash(isa::assemble(".org 0x4000\n.entry main\n" + body));
        wisp.start();
        sim.runFor(timeout);
        return wisp.mcu();
    }

    std::uint32_t mem(std::uint32_t addr)
    {
        return wisp.mcu().debugRead32(addr);
    }
};

TEST(McuExec, ArithmeticAndLogic)
{
    McuRig rig;
    auto &mcu = rig.run(R"(
main:
    li   r1, 100
    li   r2, 7
    add  r3, r1, r2
    sub  r4, r1, r2
    mul  r5, r1, r2
    divu r6, r1, r2
    remu r7, r1, r2
    and  r8, r1, r2
    or   r9, r1, r2
    xor  r10, r1, r2
    halt
)");
    ASSERT_EQ(mcu.state(), mcu::McuState::Halted);
    EXPECT_EQ(mcu.reg(3), 107u);
    EXPECT_EQ(mcu.reg(4), 93u);
    EXPECT_EQ(mcu.reg(5), 700u);
    EXPECT_EQ(mcu.reg(6), 14u);
    EXPECT_EQ(mcu.reg(7), 2u);
    EXPECT_EQ(mcu.reg(8), 100u & 7u);
    EXPECT_EQ(mcu.reg(9), 100u | 7u);
    EXPECT_EQ(mcu.reg(10), 100u ^ 7u);
}

TEST(McuExec, DivisionByZeroDefined)
{
    McuRig rig;
    auto &mcu = rig.run(R"(
main:
    li   r1, 55
    li   r2, 0
    divu r3, r1, r2
    remu r4, r1, r2
    halt
)");
    EXPECT_EQ(mcu.reg(3), 0xFFFFFFFFu);
    EXPECT_EQ(mcu.reg(4), 55u);
}

TEST(McuExec, Shifts)
{
    McuRig rig;
    auto &mcu = rig.run(R"(
main:
    li   r1, -8
    li   r2, 2
    shl  r3, r1, r2
    shr  r4, r1, r2
    sar  r5, r1, r2
    shli r6, r1, 1
    shri r7, r1, 28
    halt
)");
    EXPECT_EQ(mcu.reg(3), static_cast<std::uint32_t>(-8) << 2);
    EXPECT_EQ(mcu.reg(4), static_cast<std::uint32_t>(-8) >> 2);
    EXPECT_EQ(mcu.reg(5), static_cast<std::uint32_t>(-2));
    EXPECT_EQ(mcu.reg(6), static_cast<std::uint32_t>(-16));
    EXPECT_EQ(mcu.reg(7), 0xFu);
}

TEST(McuExec, LuiOriBuildsAddresses)
{
    McuRig rig;
    auto &mcu = rig.run(R"(
main:
    la   r1, 0xDEADBEEF
    halt
)");
    EXPECT_EQ(mcu.reg(1), 0xDEADBEEFu);
}

/** Signed/unsigned compare-branch sweep. */
struct ComparePair
{
    std::int32_t a;
    std::int32_t b;
};

class CompareBranch : public ::testing::TestWithParam<ComparePair>
{};

TEST_P(CompareBranch, AllConditionsMatchCpp)
{
    auto [a, b] = GetParam();
    McuRig rig;
    // Results in r8..r13: eq, ne, lt, ge, ltu, geu (1 = taken).
    char body[1024];
    // `la` takes the unsigned 32-bit image of the value.
    std::snprintf(body, sizeof body, R"(
main:
    la   r1, %u
    la   r2, %u
    li   r8, 0
    li   r9, 0
    li   r10, 0
    li   r11, 0
    li   r12, 0
    li   r13, 0
    cmp  r1, r2
    bne  c1
    li   r8, 1
c1: cmp  r1, r2
    beq  c2
    li   r9, 1
c2: cmp  r1, r2
    bge  c3
    li   r10, 1
c3: cmp  r1, r2
    blt  c4
    li   r11, 1
c4: cmp  r1, r2
    bgeu c5
    li   r12, 1
c5: cmp  r1, r2
    bltu c6
    li   r13, 1
c6: halt
)",
                  static_cast<std::uint32_t>(a),
                  static_cast<std::uint32_t>(b));
    auto &mcu = rig.run(body);
    ASSERT_EQ(mcu.state(), mcu::McuState::Halted);
    auto ua = static_cast<std::uint32_t>(a);
    auto ub = static_cast<std::uint32_t>(b);
    EXPECT_EQ(mcu.reg(8), a == b ? 1u : 0u) << a << " vs " << b;
    EXPECT_EQ(mcu.reg(9), a != b ? 1u : 0u);
    EXPECT_EQ(mcu.reg(10), a < b ? 1u : 0u);
    EXPECT_EQ(mcu.reg(11), a >= b ? 1u : 0u);
    EXPECT_EQ(mcu.reg(12), ua < ub ? 1u : 0u);
    EXPECT_EQ(mcu.reg(13), ua >= ub ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, CompareBranch,
    ::testing::Values(ComparePair{0, 0}, ComparePair{1, 2},
                      ComparePair{2, 1}, ComparePair{-1, 1},
                      ComparePair{1, -1}, ComparePair{-5, -3},
                      ComparePair{-3, -5},
                      ComparePair{INT32_MIN, INT32_MAX},
                      ComparePair{INT32_MAX, INT32_MIN},
                      ComparePair{INT32_MIN, -1}));

TEST(McuExec, LoadStoreByteAndWord)
{
    McuRig rig;
    auto &mcu = rig.run(R"(
main:
    la   r1, 0x5000
    la   r2, 0x11223344
    stw  r2, [r1]
    ldb  r3, [r1 + 1]
    li   r4, 0xAB
    stb  r4, [r1 + 2]
    ldw  r5, [r1]
    halt
)");
    EXPECT_EQ(mcu.reg(3), 0x33u);
    EXPECT_EQ(mcu.reg(5), 0x11AB3344u);
}

TEST(McuExec, StackPushPopCallRet)
{
    McuRig rig;
    auto &mcu = rig.run(R"(
main:
    li   r1, 11
    li   r2, 22
    push r1
    push r2
    pop  r3
    pop  r4
    call fn
    li   r6, 1
    halt
fn:
    li   r5, 33
    ret
)");
    ASSERT_EQ(mcu.state(), mcu::McuState::Halted);
    EXPECT_EQ(mcu.reg(3), 22u);
    EXPECT_EQ(mcu.reg(4), 11u);
    EXPECT_EQ(mcu.reg(5), 33u);
    EXPECT_EQ(mcu.reg(6), 1u);
    // Stack pointer restored.
    EXPECT_EQ(mcu.reg(isa::regSp), target::layout::stackTop);
}

TEST(McuExec, CallrJumpsViaRegister)
{
    McuRig rig;
    auto &mcu = rig.run(R"(
main:
    la   r1, fn
    callr r1
    halt
fn:
    li   r7, 77
    ret
)");
    EXPECT_EQ(mcu.reg(7), 77u);
}

TEST(McuFaults, UnmappedAccessIsBusError)
{
    McuRig rig;
    auto &mcu = rig.run(R"(
main:
    li   r1, 0
    ldw  r2, [r1 + 4]
    halt
)");
    EXPECT_EQ(mcu.state(), mcu::McuState::Faulted);
    EXPECT_EQ(mcu.fault(), mcu::McuFault::BusError);
    EXPECT_EQ(mcu.faultCount(), 1u);
}

TEST(McuFaults, MisalignedWordAccess)
{
    McuRig rig;
    auto &mcu = rig.run(R"(
main:
    la   r1, 0x5001
    ldw  r2, [r1]
    halt
)");
    EXPECT_EQ(mcu.state(), mcu::McuState::Faulted);
    EXPECT_EQ(mcu.fault(), mcu::McuFault::Misaligned);
}

TEST(McuFaults, IllegalInstruction)
{
    McuRig rig;
    auto &mcu = rig.run(R"(
main:
    .word 0xFF000000
)");
    EXPECT_EQ(mcu.state(), mcu::McuState::Faulted);
    EXPECT_EQ(mcu.fault(), mcu::McuFault::IllegalInstr);
}

TEST(McuPower, RebootClearsVolatileKeepsFram)
{
    McuRig rig;
    rig.wisp.flash(isa::assemble(R"(
.org 0x4000
.entry main
main:
    la   r1, 0x5000        ; FRAM counter
    ldw  r2, [r1]
    addi r2, r2, 1
    stw  r2, [r1]
    la   r3, 0x2000        ; SRAM cell
    stw  r2, [r3]
    halt
)"));
    rig.wisp.start();
    rig.sim.runFor(50 * sim::oneMs);
    ASSERT_EQ(rig.wisp.state(), mcu::McuState::Halted);
    EXPECT_EQ(rig.mem(0x5000), 1u);
    EXPECT_EQ(rig.mem(0x2000), 1u);

    // Force a brown-out + reboot by draining the capacitor.
    rig.wisp.power().capacitor().setVoltage(0.5);
    rig.sim.runFor(200 * sim::oneMs);
    ASSERT_EQ(rig.wisp.state(), mcu::McuState::Halted);
    EXPECT_EQ(rig.mem(0x5000), 2u); // FRAM persisted, incremented
    EXPECT_EQ(rig.wisp.mcu().rebootCount(), 2u);
}

TEST(McuPower, SramPoisonedAcrossReboot)
{
    McuRig rig;
    rig.wisp.flash(isa::assemble(R"(
.org 0x4000
.entry main
main:
    la   r1, 0x2100
    ldw  r2, [r1]          ; read SRAM before writing
    la   r3, 0x5100
    stw  r2, [r3]          ; expose what we saw to FRAM
    la   r4, 0x1234
    stw  r4, [r1]
    halt
)"));
    rig.wisp.start();
    rig.sim.runFor(50 * sim::oneMs);
    // First boot: SRAM starts zeroed (fresh silicon model).
    EXPECT_EQ(rig.mem(0x5100), 0u);
    rig.wisp.power().capacitor().setVoltage(0.5);
    rig.sim.runFor(200 * sim::oneMs);
    // After power loss the SRAM reads back poison, not 0x1234.
    EXPECT_EQ(rig.mem(0x5100), 0xCDCDCDCDu);
}

TEST(McuPower, HaltDropsToLowPower)
{
    McuRig rig;
    auto &mcu = rig.run("main:\n    halt\n");
    ASSERT_EQ(mcu.state(), mcu::McuState::Halted);
    EXPECT_DOUBLE_EQ(rig.wisp.power().totalLoadAmps(),
                     rig.wisp.config().mcu.haltAmps);
}

TEST(McuPower, CyclesAccumulateOnlyWhileRunning)
{
    McuRig rig;
    auto &mcu = rig.run("main:\n    halt\n");
    std::uint64_t cycles = mcu.cycleCount();
    EXPECT_GT(cycles, 0u);
    rig.sim.runFor(100 * sim::oneMs);
    EXPECT_EQ(mcu.cycleCount(), cycles);
}

TEST(McuMmio, CycleCounterReadable)
{
    McuRig rig;
    auto &mcu = rig.run(R"(
main:
    la   r1, 0xF084
    ldw  r2, [r1]
    ldw  r3, [r1]
    cmp  r3, r2
    bgeu ok
    halt
ok:
    sub  r4, r3, r2
    halt
)");
    EXPECT_GT(mcu.reg(4), 0u);
}

TEST(Checkpoint, SaveAndRestoreAcrossReboot)
{
    target::WispConfig config;
    config.mcu.checkpointingEnabled = true;
    McuRig rig(config);
    // Program increments a volatile register-resident counter but
    // checkpoints each iteration; after 5 it commits to FRAM and
    // halts. Restoring must preserve r5 across reboots.
    rig.wisp.flash(isa::assemble(R"(
.org 0x4000
.entry main
main:
    li   r5, 0
loop:
    chkpt
    addi r5, r5, 1
    cmpi r5, 5
    blt  loop
    la   r1, 0x5000
    ldw  r2, [r1]
    add  r2, r2, r5
    stw  r2, [r1]
    halt
)"));
    rig.wisp.start();
    rig.sim.runFor(50 * sim::oneMs);
    ASSERT_EQ(rig.wisp.state(), mcu::McuState::Halted);
    EXPECT_EQ(rig.mem(0x5000), 5u);
    EXPECT_GT(rig.wisp.mcu().checkpointCount(), 0u);

    // Reboot: execution resumes from the checkpoint (inside `loop`),
    // NOT from main -- so r5 is not reset and the total grows by at
    // most 5 more (the remaining iterations), not by another 5 from
    // scratch... it re-runs from the last checkpoint: r5 resumed.
    rig.wisp.power().capacitor().setVoltage(0.5);
    rig.sim.runFor(300 * sim::oneMs);
    ASSERT_EQ(rig.wisp.state(), mcu::McuState::Halted);
    EXPECT_GT(rig.wisp.mcu().restoreCount(), 0u);
    // Restored at the last checkpoint (r5 == 4, about to becomes 5):
    // the tail of the loop re-executes and adds 5 again.
    EXPECT_EQ(rig.mem(0x5000), 10u);
}

TEST(Checkpoint, DisabledChkptIsNop)
{
    McuRig rig; // checkpointing disabled by default
    auto &mcu = rig.run(R"(
main:
    li   r5, 9
    chkpt
    halt
)");
    ASSERT_EQ(mcu.state(), mcu::McuState::Halted);
    EXPECT_EQ(mcu.checkpointCount(), 0u);
}

TEST(Checkpoint, MmioEnableToggle)
{
    McuRig rig;
    auto &mcu = rig.run(R"(
main:
    la   r1, 0xF090
    li   r2, 1
    stw  r2, [r1]          ; enable the checkpoint unit at runtime
    chkpt
    halt
)");
    ASSERT_EQ(mcu.state(), mcu::McuState::Halted);
    EXPECT_EQ(mcu.checkpointCount(), 1u);
    EXPECT_EQ(mcu.reg(0), 1u); // chkpt success flag
}

TEST(Checkpoint, DoubleBufferingAlternatesSlots)
{
    target::WispConfig config;
    config.mcu.checkpointingEnabled = true;
    McuRig rig(config);
    rig.run(R"(
main:
    chkpt
    chkpt
    chkpt
    halt
)");
    auto &mcu = rig.wisp.mcu();
    auto &cfg = rig.wisp.config().mcu;
    std::uint32_t seq0 = mcu.debugRead32(cfg.checkpointBase + 4);
    std::uint32_t seq1 = mcu.debugRead32(cfg.checkpointBase +
                                         cfg.checkpointSlotSize + 4);
    // Three checkpoints: slots hold sequence numbers {3, 2}.
    EXPECT_EQ(std::max(seq0, seq1), 3u);
    EXPECT_EQ(std::min(seq0, seq1), 2u);
}

TEST(DebugIrq, EntersHandlerAndReturns)
{
    McuRig rig;
    rig.wisp.flash(isa::assemble(R"(
.org 0x4000
.entry main
.irq isr
main:
    li   r5, 0
loop:
    addi r5, r5, 1
    br   loop
isr:
    la   r1, 0x5000
    stw  r5, [r1]          ; record the interrupted counter
    reti
)"));
    rig.wisp.start();
    rig.sim.runFor(10 * sim::oneMs);
    ASSERT_EQ(rig.wisp.state(), mcu::McuState::Running);
    rig.wisp.mcu().raiseDebugIrq();
    rig.sim.runFor(sim::oneMs);
    EXPECT_TRUE(rig.wisp.mcu().inDebugIrq());
    rig.wisp.mcu().clearDebugIrq();
    rig.sim.runFor(sim::oneMs);
    EXPECT_FALSE(rig.wisp.mcu().inDebugIrq());
    // The counter kept counting after reti.
    std::uint32_t snapshot = rig.mem(0x5000);
    EXPECT_GT(snapshot, 0u);
    rig.sim.runFor(sim::oneMs);
    EXPECT_GT(rig.wisp.mcu().reg(5), snapshot);
}

TEST(DebugIrq, IgnoredWithoutHandler)
{
    McuRig rig;
    rig.wisp.flash(isa::assemble(R"(
.org 0x4000
.entry main
main:
    br   main
)"));
    rig.wisp.start();
    rig.sim.runFor(10 * sim::oneMs);
    rig.wisp.mcu().raiseDebugIrq();
    rig.sim.runFor(sim::oneMs);
    EXPECT_FALSE(rig.wisp.mcu().inDebugIrq());
    EXPECT_EQ(rig.wisp.state(), mcu::McuState::Running);
}

TEST(McuExec, FaultedCoreStillDrawsCurrent)
{
    McuRig rig;
    auto &mcu = rig.run(R"(
main:
    li   r1, 0
    stw  r1, [r1]
)");
    ASSERT_EQ(mcu.state(), mcu::McuState::Faulted);
    // The crashed core keeps its active load: this is what makes the
    // device discharge and reboot in the paper's failure loop.
    EXPECT_DOUBLE_EQ(rig.wisp.power().totalLoadAmps(),
                     rig.wisp.config().mcu.activeAmps);
}

TEST(McuExec, InstructionTracerObservesStream)
{
    McuRig rig;
    std::vector<isa::Opcode> seen;
    rig.wisp.mcu().addTracer(&seen,
        [&seen](mem::Addr, const isa::Instr &instr) {
            seen.push_back(instr.op);
        });
    rig.run(R"(
main:
    li   r1, 1
    nop
    halt
)");
    ASSERT_GE(seen.size(), 3u);
    EXPECT_EQ(seen[0], isa::Opcode::Li);
    EXPECT_EQ(seen[1], isa::Opcode::Nop);
    EXPECT_EQ(seen[2], isa::Opcode::Halt);
}

/** The superblock-hot loop of Superblock.HotLoopRetiresInsideBlocks
 *  (test_fastpath.cc): untraced, most of it retires inside blocks. */
constexpr const char *hotLoop = R"(
main:
    li   r1, 0
    li   r2, 2000
loop:
    addi r1, r1, 1
    add  r3, r3, r1
    cmp  r1, r2
    bne  loop
    halt
)";

/** Any subscribed tracer forces per-instruction stepping, and every
 *  subscriber sees every retired instruction. */
TEST(McuExec, EveryTracerSeesEveryInstruction)
{
    McuRig untraced;
    ASSERT_GT(untraced.run(hotLoop).superblockStats().blockInstrs, 0u);

    McuRig rig;
    std::uint64_t first = 0, second = 0;
    rig.wisp.mcu().addTracer(
        &first, [&first](mem::Addr, const isa::Instr &) { ++first; });
    rig.wisp.mcu().addTracer(
        &second, [&second](mem::Addr, const isa::Instr &) { ++second; });
    auto &mcu = rig.run(hotLoop);
    ASSERT_EQ(mcu.state(), mcu::McuState::Halted);
    EXPECT_EQ(first, mcu.instrCount());
    EXPECT_EQ(second, mcu.instrCount());
    EXPECT_EQ(mcu.superblockStats().blockInstrs, 0u);
}

TEST(McuExec, RemovingOneTracerLeavesTheOtherComplete)
{
    McuRig rig;
    std::uint64_t dropped = 0, kept = 0;
    auto &mcu = rig.wisp.mcu();
    mcu.addTracer(&dropped,
                  [&dropped](mem::Addr, const isa::Instr &) { ++dropped; });
    mcu.addTracer(&kept, [&kept](mem::Addr, const isa::Instr &) { ++kept; });
    rig.wisp.flash(isa::assemble(".org 0x4000\n.entry main\n" +
                                 std::string(hotLoop)));
    rig.wisp.start();
    while (dropped < 1000 && rig.sim.now() < 500 * sim::oneMs)
        rig.sim.runFor(10 * sim::oneUs);
    ASSERT_EQ(mcu.state(), mcu::McuState::Running);
    mcu.removeTracer(&dropped);
    mcu.removeTracer(&dropped); // unknown owner: a no-op
    const std::uint64_t droppedAtRemoval = dropped;
    rig.sim.runFor(500 * sim::oneMs);
    ASSERT_EQ(mcu.state(), mcu::McuState::Halted);
    EXPECT_EQ(dropped, droppedAtRemoval);
    EXPECT_LT(dropped, mcu.instrCount());
    EXPECT_EQ(kept, mcu.instrCount());
    EXPECT_EQ(mcu.superblockStats().blockInstrs, 0u);
}

} // namespace
