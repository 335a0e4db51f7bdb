/**
 * @file
 * Exhaustive interruption-point coverage for the linked-list case
 * study (paper Fig 3 / Section 5.3.1).
 *
 * The paper reasons about *one* vulnerability window; this test
 * checks *all of them*: for every instruction boundary k in the
 * app's startup and first few iterations, force a power failure
 * exactly after instruction k, let the device recover, and verify
 * that
 *
 *   (1) soundness  — execution never reaches undefined behaviour
 *       (the keep-alive assert halts the target first), and
 *   (2) completeness — whenever the assert did NOT fire, the list
 *       invariant ("the tail pointer points to the last element")
 *       genuinely holds in FRAM.
 *
 * Together these show the Section 5.3.1 diagnosis is not a lucky
 * sample: the assert catches exactly the corrupt states, at every
 * possible interruption point.
 */

#include <gtest/gtest.h>

#include "apps/linked_list.hh"
#include "edb/board.hh"
#include "energy/harvester.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"

using namespace edb;

namespace {

namespace lay = apps::linked_list_layout;

/** Does FRAM satisfy "tail points to the last element"? */
bool
listInvariantHolds(mcu::Mcu &mcu)
{
    std::uint32_t first = mcu.debugRead32(lay::headAddr);
    std::uint32_t tail = mcu.debugRead32(lay::tailPtrAddr);
    if (first == 0)
        return tail == lay::headAddr;
    return tail == first &&
           mcu.debugRead32(first + lay::nodeNextOff) == 0;
}

struct CutOutcome
{
    bool faulted = false;
    bool assertCaught = false;
    bool invariantOk = false;
    bool progressed = false;
};

/**
 * Run the app with the assert enabled, cut power exactly after the
 * k-th executed instruction, recover, and classify the outcome.
 */
CutOutcome
cutAfterInstruction(std::uint64_t k)
{
    sim::Simulator simulator(7777);
    energy::TheveninHarvester supply(3.0, 200.0);
    target::Wisp wisp(simulator, "wisp", &supply, nullptr);
    edbdbg::EdbBoard board(simulator, "edb", wisp);

    apps::LinkedListOptions options;
    options.withAssert = true;
    auto program = apps::buildLinkedListApp(options);
    const mem::Addr loop_top = program.symbol("main_loop");
    wisp.flash(program);

    std::uint64_t executed = 0;
    bool cut_done = false;
    unsigned loop_tops_after_cut = 0;
    bool invariant_ok_at_tops = true;
    wisp.mcu().addTracer(&executed, [&](mem::Addr pc,
                                        const isa::Instr &) {
        if (!cut_done) {
            if (++executed == k) {
                // Drop Vcap below brown-out: the k-th instruction
                // still commits; the k+1-th never does.
                wisp.power().capacitor().setVoltage(0.5);
                cut_done = true;
            }
            return;
        }
        // After recovery, audit the invariant exactly where the
        // assert checks it: at the top of the main loop. (It is
        // *transiently* false inside every append -- that is the
        // whole point of the bug -- so mid-iteration sampling would
        // be meaningless.)
        if (pc == loop_top) {
            ++loop_tops_after_cut;
            if (!listInvariantHolds(wisp.mcu()))
                invariant_ok_at_tops = false;
        }
    });
    wisp.start();

    CutOutcome out;
    sim::Tick deadline = simulator.now() + 500 * sim::oneMs;
    while (simulator.now() < deadline) {
        simulator.runFor(sim::oneMs);
        if (wisp.mcu().faultCount() > 0) {
            out.faulted = true;
            return out;
        }
        if (board.session() && board.session()->open()) {
            out.assertCaught = true;
            return out;
        }
        if (loop_tops_after_cut >= 5) {
            out.progressed = true;
            out.invariantOk = invariant_ok_at_tops;
            return out;
        }
    }
    // Never reached the cut or made little progress; judge what we
    // saw at the loop tops anyway.
    out.progressed = loop_tops_after_cut > 0;
    out.invariantOk = invariant_ok_at_tops;
    return out;
}

/** Sweep ranges of instruction indices (parameterized shards). */
class ExhaustiveCut
    : public ::testing::TestWithParam<std::pair<int, int>>
{};

TEST_P(ExhaustiveCut, AssertShieldsEveryInterruptionPoint)
{
    auto [lo, hi] = GetParam();
    for (int k = lo; k < hi; ++k) {
        CutOutcome out = cutAfterInstruction(k);
        // Soundness: undefined behaviour is never reached.
        EXPECT_FALSE(out.faulted) << "wild write escaped at k=" << k;
        // Completeness: silent runs really are consistent at every
        // loop top the assert would have checked.
        if (!out.assertCaught) {
            EXPECT_TRUE(out.invariantOk)
                << "silent corruption at k=" << k;
        }
    }
}

TEST(ExhaustiveCutCoverage, SomeCutsActuallyCorrupt)
{
    // The sweep must include real vulnerability windows: across the
    // iteration region, several cuts trigger the assert.
    int caught = 0;
    for (int k = 40; k < 190; k += 1)
        caught += cutAfterInstruction(k).assertCaught;
    EXPECT_GE(caught, 2);
}

// Shards: startup/init, first iterations (append/remove windows),
// and a later steady-state stretch.
INSTANTIATE_TEST_SUITE_P(
    Windows, ExhaustiveCut,
    ::testing::Values(std::make_pair(1, 40),
                      std::make_pair(40, 90),
                      std::make_pair(90, 140),
                      std::make_pair(140, 190)));

} // namespace
