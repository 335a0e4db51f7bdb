/**
 * @file
 * Fast-path equivalence suite: the predecoded instruction cache, flat
 * memory dispatch, amortized analog integration and batched slices
 * must be *bit-identical* to the reference path. These tests run the
 * same workloads with every fast-path flag on and off and diff the
 * architectural outcome, and stress the one piece of machinery that
 * keeps the predecode cache honest: invalidation on stores into the
 * code range.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "apps/linked_list.hh"
#include "energy/harvester.hh"
#include "isa/assembler.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"

using namespace edb;

namespace {

/** Everything architecturally observable after a run. */
struct RunTrace
{
    std::uint64_t instrs = 0;
    std::uint64_t cycles = 0;
    std::uint64_t reboots = 0;
    std::uint64_t faults = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t restores = 0;
    std::uint64_t boots = 0;
    std::uint32_t iterCount = 0;
    double volts = 0.0;
};

/** Linked-list app on harvested RF power: boots, brown-outs,
 *  checkpoints and restores, all driven by the shared RNG stream. */
RunTrace
runLinkedListOnRf(target::WispConfig config, std::uint64_t seed,
                  sim::Tick duration)
{
    sim::Simulator simulator(seed);
    energy::RfHarvester rf(30.0, 1.0);
    config.mcu.checkpointingEnabled = true;
    target::Wisp wisp(simulator, "wisp", &rf, nullptr, config);
    apps::LinkedListOptions opts;
    opts.withCheckpoint = true;
    wisp.flash(apps::buildLinkedListApp(opts));
    wisp.start();
    simulator.runFor(duration);

    RunTrace t;
    const auto &mcu = wisp.mcu();
    t.instrs = mcu.instrCount();
    t.cycles = mcu.cycleCount();
    t.reboots = mcu.rebootCount();
    t.faults = mcu.faultCount();
    t.checkpoints = mcu.checkpointCount();
    t.restores = mcu.restoreCount();
    t.boots = wisp.power().bootCount();
    t.iterCount = wisp.mcu().debugRead32(
        apps::linked_list_layout::iterCountAddr);
    t.volts = wisp.voltage();
    return t;
}

/**
 * Golden-trace determinism: the fast path and the reference path,
 * given the same seed, must agree on *every* architectural statistic
 * and on the final capacitor voltage to the last bit. This is the
 * contract every optimisation in the kernel is held to — the fast
 * path makes the same math cheaper, it does not do different math.
 */
TEST(FastPath, GoldenTraceMatchesReferencePath)
{
    for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{12345}}) {
        SCOPED_TRACE(testing::Message() << "seed=" << seed);
        RunTrace fast = runLinkedListOnRf(target::WispConfig{}, seed,
                                          2 * sim::oneSec);
        RunTrace ref = runLinkedListOnRf(target::referenceEngine(), seed,
                                         2 * sim::oneSec);

        // The workload must actually exercise intermittence, or the
        // comparison proves nothing.
        EXPECT_GT(fast.instrs, 0u);
        EXPECT_GT(fast.reboots, 0u);
        EXPECT_GT(fast.checkpoints, 0u);

        EXPECT_EQ(fast.instrs, ref.instrs);
        EXPECT_EQ(fast.cycles, ref.cycles);
        EXPECT_EQ(fast.reboots, ref.reboots);
        EXPECT_EQ(fast.faults, ref.faults);
        EXPECT_EQ(fast.checkpoints, ref.checkpoints);
        EXPECT_EQ(fast.restores, ref.restores);
        EXPECT_EQ(fast.boots, ref.boots);
        EXPECT_EQ(fast.iterCount, ref.iterCount);
        // Bit-exact, not approximately equal: the analog fast path
        // must produce the identical trajectory.
        EXPECT_EQ(fast.volts, ref.volts);
    }
}

/** Strong-supply rig mirroring test_mcu's McuRig. */
struct Rig
{
    sim::Simulator sim{17};
    energy::TheveninHarvester supply{3.0, 50.0};
    target::Wisp wisp;

    explicit Rig(target::WispConfig config = {})
        : wisp(sim, "wisp", &supply, nullptr, config)
    {}

    mcu::Mcu &
    run(const std::string &body,
        sim::Tick timeout = 500 * sim::oneMs)
    {
        wisp.flash(isa::assemble(".org 0x4000\n.entry main\n" + body));
        wisp.start();
        sim.runFor(timeout);
        return wisp.mcu();
    }
};

/** Self-modifying program: executes `patch` once (predecoding it),
 *  then stores a different instruction word over it via a routed
 *  STW and loops back. The write watch must invalidate the cached
 *  decode, so the second pass executes the *new* instruction. */
constexpr const char *selfModifyingBody = R"(
main:
    la   r1, patch
    la   r2, newinstr
    li   r6, 0
patch:
    li   r4, 1
    cmpi r6, 1
    beq  done
    ldw  r3, [r2]
    stw  r3, [r1]
    li   r6, 1
    br   patch
done:
    halt
newinstr:
    li   r4, 42
)";

TEST(FastPath, SelfModifyingStoreInvalidatesPredecodedInstr)
{
    Rig rig;
    auto &mcu = rig.run(selfModifyingBody);
    ASSERT_EQ(mcu.state(), mcu::McuState::Halted);
    // A stale predecode would leave r4 == 1.
    EXPECT_EQ(mcu.reg(4), 42u);
    EXPECT_EQ(mcu.reg(6), 1u);
}

TEST(FastPath, SelfModifyingStoreMatchesUncachedSemantics)
{
    Rig fast;
    auto &mcuFast = fast.run(selfModifyingBody);
    Rig ref(target::referenceEngine());
    auto &mcuRef = ref.run(selfModifyingBody);
    ASSERT_EQ(mcuFast.state(), mcu::McuState::Halted);
    ASSERT_EQ(mcuRef.state(), mcu::McuState::Halted);
    EXPECT_EQ(mcuFast.reg(4), mcuRef.reg(4));
    EXPECT_EQ(mcuFast.instrCount(), mcuRef.instrCount());
    EXPECT_EQ(mcuFast.cycleCount(), mcuRef.cycleCount());
}

/** Repeatedly re-patching the same slot must invalidate every time,
 *  not just once: the validity byte is re-armed by re-decode. */
TEST(FastPath, RepeatedPatchingStaysCoherent)
{
    Rig rig;
    auto &mcu = rig.run(R"(
main:
    la   r1, patch
    li   r6, 0
    li   r7, 0
loop:
patch:
    addi r7, r7, 1
    addi r6, r6, 1
    cmpi r6, 8
    beq  done
    ; alternate the patched instruction each iteration: odd counts
    ; pick `addi r7, r7, 3`, even counts restore `addi r7, r7, 1`.
    andi r8, r6, 1
    cmpi r8, 1
    beq  odd
    la   r2, incone
    br   apply
odd:
    la   r2, incthree
apply:
    ldw  r3, [r2]
    stw  r3, [r1]
    br   loop
done:
    halt
incone:
    addi r7, r7, 1
incthree:
    addi r7, r7, 3
)");
    ASSERT_EQ(mcu.state(), mcu::McuState::Halted);
    // Iterations execute: 1, then +3, +1, +3, +1, +3, +1, +3
    // (iteration i>=2 runs the instruction patched by iteration i-1).
    EXPECT_EQ(mcu.reg(7), 1u + 3 + 1 + 3 + 1 + 3 + 1 + 3);
}

/** FRAM wear counter of a wisp, for wear-parity assertions. */
std::uint64_t
framWrites(target::Wisp &wisp)
{
    for (auto *region : wisp.memoryMap().regions())
        if (region->kind() == mem::RegionKind::Fram)
            return dynamic_cast<mem::Ram *>(region)->writeCount();
    return 0;
}

/** A hot straight-line loop must actually retire instructions inside
 *  superblocks under the default config — otherwise every other test
 *  in this file is vacuously comparing interpreter against itself. */
TEST(Superblock, HotLoopRetiresInsideBlocks)
{
    Rig rig;
    auto &mcu = rig.run(R"(
main:
    li   r1, 0
    li   r2, 2000
loop:
    addi r1, r1, 1
    add  r3, r3, r1
    cmp  r1, r2
    bne  loop
    halt
)");
    ASSERT_EQ(mcu.state(), mcu::McuState::Halted);
    EXPECT_EQ(mcu.reg(1), 2000u);
    const auto &sb = mcu.superblockStats();
    EXPECT_GT(sb.blocksBuilt, 0u);
    EXPECT_GT(sb.execs, 100u);
    // The loop body dominates: most retirement happens in blocks.
    EXPECT_GT(sb.blockInstrs, mcu.instrCount() / 2);
}

/**
 * Self-modifying code landing *inside a live superblock*: the loop
 * body is long enough to compile, and the patched slot sits in the
 * block being executed. The store must bump the code epoch (bailing
 * out of the running block after the committed store), force a
 * rebuild on the next dispatch, and the re-decoded instruction must
 * take effect — matching the reference interpreter bit for bit.
 */
TEST(Superblock, PatchInsideLiveBlockForcesRebuild)
{
    Rig fast;
    auto &mcuFast = fast.run(selfModifyingBody);
    ASSERT_EQ(mcuFast.state(), mcu::McuState::Halted);
    EXPECT_EQ(mcuFast.reg(4), 42u);
    // The store into the block advanced the epoch and the next
    // dispatch rebuilt rather than reusing the stale block.
    EXPECT_GT(mcuFast.codeEpoch(), 1u);
    const auto &sb = mcuFast.superblockStats();
    EXPECT_GT(sb.execs, 0u);
    EXPECT_GT(sb.rebuilds + sb.blocksBuilt, 1u);

    Rig ref(target::referenceEngine());
    auto &mcuRef = ref.run(selfModifyingBody);
    ASSERT_EQ(mcuRef.state(), mcu::McuState::Halted);
    EXPECT_EQ(mcuFast.reg(4), mcuRef.reg(4));
    EXPECT_EQ(mcuFast.instrCount(), mcuRef.instrCount());
    EXPECT_EQ(mcuFast.cycleCount(), mcuRef.cycleCount());
}

/**
 * Brown-out landing mid-block: on harvested RF power with
 * checkpointing off, the superblock engine's batched drain must
 * place every power loss at exactly the same instruction as the
 * reference interpreter — same reboot count, same resume PC at the
 * horizon, same FRAM wear, same final capacitor voltage. The
 * admissibility pre-check makes blocks that *could* die mid-block
 * fall back to per-instruction stepping, so death always lands with
 * reference timing.
 */
TEST(Superblock, BrownOutMidBlockMatchesReference)
{
    struct Probe
    {
        std::uint64_t instrs, cycles, reboots, framWear;
        std::uint32_t pc;
        double volts;
        mcu::Mcu::SuperblockStats sb;
    };
    auto probe = [](target::WispConfig config) {
        sim::Simulator simulator(29);
        energy::RfHarvester rf(30.0, 1.0);
        target::Wisp wisp(simulator, "wisp", &rf, nullptr, config);
        wisp.flash(apps::buildLinkedListApp());
        wisp.start();
        simulator.runFor(sim::oneSec);
        Probe p{};
        p.instrs = wisp.mcu().instrCount();
        p.cycles = wisp.mcu().cycleCount();
        p.reboots = wisp.mcu().rebootCount();
        p.framWear = framWrites(wisp);
        p.pc = wisp.mcu().pc();
        p.volts = wisp.voltage();
        p.sb = wisp.mcu().superblockStats();
        return p;
    };

    Probe fast = probe(target::WispConfig{});
    Probe ref = probe(target::referenceEngine());

    // The rig must really brown out while blocks are running.
    EXPECT_GT(fast.reboots, 0u);
    EXPECT_GT(fast.sb.execs, 0u);
    EXPECT_EQ(ref.sb.execs, 0u);

    EXPECT_EQ(fast.instrs, ref.instrs);
    EXPECT_EQ(fast.cycles, ref.cycles);
    EXPECT_EQ(fast.reboots, ref.reboots);
    EXPECT_EQ(fast.framWear, ref.framWear);
    EXPECT_EQ(fast.pc, ref.pc);
    EXPECT_EQ(fast.volts, ref.volts);
}

/**
 * CHKPT is a block barrier: the straight-line run leading up to it
 * compiles, the checkpoint itself executes in the interpreter, and
 * the committed checkpoint (count, FRAM wear from the slot writes,
 * cycle cost) is identical to the reference path.
 */
TEST(Superblock, CheckpointTerminatesBlockWithIdenticalCost)
{
    constexpr const char *body = R"(
main:
    li   r1, 0
    li   r2, 7
    li   r3, 0
loop:
    add  r1, r1, r2
    add  r3, r3, r1
    addi r4, r4, 1
    cmpi r4, 50
    bne  loop
    chkpt
    add  r1, r1, r2
    halt
)";
    target::WispConfig chkptOn;
    chkptOn.mcu.checkpointingEnabled = true;
    target::WispConfig chkptRef = target::referenceEngine();
    chkptRef.mcu.checkpointingEnabled = true;

    Rig fast(chkptOn);
    auto &mcuFast = fast.run(body);
    std::uint64_t fastWear = framWrites(fast.wisp);
    Rig ref(chkptRef);
    auto &mcuRef = ref.run(body);
    std::uint64_t refWear = framWrites(ref.wisp);

    ASSERT_EQ(mcuFast.state(), mcu::McuState::Halted);
    ASSERT_EQ(mcuRef.state(), mcu::McuState::Halted);
    EXPECT_EQ(mcuFast.checkpointCount(), 1u);
    EXPECT_GT(mcuFast.superblockStats().execs, 0u);
    EXPECT_EQ(mcuFast.reg(1), mcuRef.reg(1));
    EXPECT_EQ(mcuFast.reg(3), mcuRef.reg(3));
    EXPECT_EQ(mcuFast.checkpointCount(), mcuRef.checkpointCount());
    EXPECT_EQ(mcuFast.instrCount(), mcuRef.instrCount());
    EXPECT_EQ(mcuFast.cycleCount(), mcuRef.cycleCount());
    EXPECT_EQ(fastWear, refWear);
}

/**
 * Flashing is not a program store: loadProgram bulk-copies into the
 * backing store, so the FRAM wear count after a flash reflects only
 * the checkpoint-slot invalidation (2 slots x 2 header words), no
 * matter how large the image is.
 */
TEST(FastPath, FlashDoesNotPolluteWearStatistics)
{
    sim::Simulator simulator(3);
    energy::TheveninHarvester supply(3.0, 50.0);
    target::Wisp wisp(simulator, "wisp", &supply, nullptr);

    mem::Ram *fram = nullptr;
    for (auto *region : wisp.memoryMap().regions()) {
        if (region->kind() == mem::RegionKind::Fram)
            fram = dynamic_cast<mem::Ram *>(region);
    }
    ASSERT_NE(fram, nullptr);

    std::uint64_t before = fram->writeCount();
    wisp.flash(apps::buildLinkedListApp());
    std::uint64_t afterBig = fram->writeCount();
    wisp.flash(isa::assemble(".org 0x4000\n.entry main\nmain:\n halt\n"));
    std::uint64_t afterSmall = fram->writeCount();

    // Image-size independent: both flashes cost the same 4 routed
    // header writes.
    EXPECT_EQ(afterBig - before, 4u);
    EXPECT_EQ(afterSmall - afterBig, 4u);
}

} // namespace
