/**
 * @file
 * Tests for the non-volatile consistency auditor: the register-taint
 * machine in isolation, WAR detection on the paper's linked-list bug,
 * absence of false positives on the benign apps, and the EdbBoard
 * surfacing path (ConsistencyViolation sessions).
 */

#include <gtest/gtest.h>

#include "apps/activity.hh"
#include "apps/linked_list.hh"
#include "edb/board.hh"
#include "energy/harvester.hh"
#include "fuzz/generator.hh"
#include "fuzz/oracle.hh"
#include "isa/assembler.hh"
#include "mem/nv_audit.hh"
#include "runtime/libedb.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"

using namespace edb;
using namespace edb::mem;

namespace {

// ---------------------------------------------------------------
// Taint machine in isolation.
// ---------------------------------------------------------------

class NvAuditUnit : public ::testing::Test
{
  protected:
    NvAuditUnit() : fram("fram", 0x4000, 0x1000, RegionKind::Fram) {}

    NvAuditConfig
    cfg()
    {
        NvAuditConfig c;
        c.checkpointBase = 0x4800;
        c.checkpointSpan = 0x100;
        return c;
    }

    Ram fram;
};

TEST_F(NvAuditUnit, LoadTaintsAndStoreThroughTaintOpensRecord)
{
    NvAuditor audit(cfg(), fram);
    audit.onBoot(0);
    audit.onLoad(3, 0x4010, 4);       // r3 <- [NV]
    audit.onStore(3, 0x4100, 0x40, 4); // [r3 target in NV]
    EXPECT_EQ(audit.openRecords(), 1u);
    audit.onPowerLoss(100);
    EXPECT_EQ(audit.violationCount(), 1u);
    ASSERT_EQ(audit.findings().size(), 1u);
    const NvFinding &f = audit.findings()[0];
    EXPECT_EQ(f.guideAddr, 0x4010u);
    EXPECT_EQ(f.storeAddr, 0x4100u);
    EXPECT_EQ(f.storePc, 0x40u);
    EXPECT_EQ(f.lossTick, 100);
    // The report names the offending addresses and the interval.
    std::string text = nvFindingText(f);
    EXPECT_NE(text.find("0x4100"), std::string::npos);
    EXPECT_NE(text.find("0x4010"), std::string::npos);
    EXPECT_NE(text.find("interval"), std::string::npos);
}

TEST_F(NvAuditUnit, WriteOverGuideClosesRecord)
{
    NvAuditor audit(cfg(), fram);
    audit.onBoot(0);
    audit.onLoad(3, 0x4010, 4);
    audit.onStore(3, 0x4100, 0x40, 4);
    EXPECT_EQ(audit.openRecords(), 1u);
    // The interval updates the read's own source: benign RMW shape.
    audit.rawWriteHook(&audit, 0x4010, 4);
    EXPECT_EQ(audit.openRecords(), 0u);
    audit.onPowerLoss(100);
    EXPECT_EQ(audit.violationCount(), 0u);
}

TEST_F(NvAuditUnit, CheckpointCommitClosesRecords)
{
    NvAuditor audit(cfg(), fram);
    audit.onBoot(0);
    audit.onLoad(3, 0x4010, 4);
    audit.onStore(3, 0x4100, 0x40, 4);
    audit.onCheckpointCommit(50);
    EXPECT_EQ(audit.openRecords(), 0u);
    EXPECT_TRUE(audit.shadowValid());
    EXPECT_EQ(audit.shadowTick(), 50);
    audit.onPowerLoss(100);
    EXPECT_EQ(audit.violationCount(), 0u);
}

TEST_F(NvAuditUnit, TaintPropagatesThroughDeriveAndCombine)
{
    NvAuditor audit(cfg(), fram);
    audit.onBoot(0);
    audit.onLoad(1, 0x4020, 4);
    audit.onRegDerive(2, 1);    // mov r2, r1
    audit.onRegCombine(4, 2, 5); // add r4, r2, r5
    audit.onStore(4, 0x4200, 0x44, 4);
    EXPECT_EQ(audit.openRecords(), 1u);
    audit.onPowerLoss(10);
    ASSERT_EQ(audit.findings().size(), 1u);
    EXPECT_EQ(audit.findings()[0].guideAddr, 0x4020u);
}

TEST_F(NvAuditUnit, FreshRegisterWriteClearsTaint)
{
    NvAuditor audit(cfg(), fram);
    audit.onBoot(0);
    audit.onLoad(1, 0x4020, 4);
    audit.onRegWrite(1); // li r1, ...
    audit.onStore(1, 0x4200, 0x44, 4);
    EXPECT_EQ(audit.openRecords(), 0u);
}

TEST_F(NvAuditUnit, NonNvAddressesAreIgnored)
{
    NvAuditor audit(cfg(), fram);
    audit.onBoot(0);
    audit.onLoad(1, 0x1000, 4); // SRAM load: clears, not taints
    audit.onStore(1, 0x4100, 0x40, 4);
    EXPECT_EQ(audit.openRecords(), 0u);
    audit.onLoad(1, 0x4010, 4);
    audit.onStore(1, 0x1000, 0x40, 4); // SRAM store: not audited
    EXPECT_EQ(audit.openRecords(), 0u);
}

TEST_F(NvAuditUnit, CheckpointSlotsAreExcluded)
{
    NvAuditor audit(cfg(), fram);
    audit.onBoot(0);
    audit.onLoad(1, 0x4810, 4); // inside the slot range: no taint
    audit.onStore(1, 0x4100, 0x40, 4);
    EXPECT_EQ(audit.openRecords(), 0u);
    audit.onLoad(1, 0x4010, 4);
    audit.onStore(1, 0x4820, 0x40, 4); // slot store: not audited
    EXPECT_EQ(audit.openRecords(), 0u);
}

TEST_F(NvAuditUnit, BootStartsFreshInterval)
{
    NvAuditor audit(cfg(), fram);
    audit.onBoot(0);
    EXPECT_EQ(audit.intervalIndex(), 1u);
    audit.onLoad(1, 0x4010, 4);
    audit.onBoot(10);
    EXPECT_EQ(audit.intervalIndex(), 2u);
    // Taint does not survive the reboot (registers are volatile).
    audit.onStore(1, 0x4100, 0x40, 4);
    EXPECT_EQ(audit.openRecords(), 0u);
}

TEST_F(NvAuditUnit, FindingsCapDoesNotLoseTheCount)
{
    NvAuditConfig c = cfg();
    c.maxFindings = 2;
    NvAuditor audit(c, fram);
    audit.onBoot(0);
    for (int i = 0; i < 5; ++i) {
        audit.onLoad(1, 0x4010, 4);
        audit.onStore(1, 0x4100 + 4 * i, 0x40, 4);
    }
    audit.onPowerLoss(10);
    EXPECT_EQ(audit.findings().size(), 2u);
    EXPECT_EQ(audit.violationCount(), 5u);
}

TEST_F(NvAuditUnit, ShadowDiffReportsDivergence)
{
    NvAuditor audit(cfg(), fram);
    audit.onBoot(0);
    fram.write8(0x4010, 0x11);
    audit.onCheckpointCommit(5);
    EXPECT_TRUE(audit.shadowDiff().empty());
    fram.write8(0x4010, 0x22);
    fram.write8(0x4900, 0x33);
    auto diffs = audit.shadowDiff();
    ASSERT_EQ(diffs.size(), 2u);
    EXPECT_EQ(diffs[0], 0x4010u);
    EXPECT_EQ(diffs[1], 0x4900u);
    // Checkpoint-slot bytes never count as divergence.
    fram.write8(0x4810, 0x44);
    EXPECT_EQ(audit.shadowDiff().size(), 2u);
}

// ---------------------------------------------------------------
// Whole-target integration.
// ---------------------------------------------------------------

TEST(NvAuditIntegration, LinkedListBugIsFlagged)
{
    sim::Simulator simulator(1);
    energy::RfHarvester rf(30.0, 1.0);
    target::Wisp wisp(simulator, "wisp", &rf);
    NvAuditor audit = wisp.makeAuditor();
    wisp.attachAuditor(&audit);
    wisp.flash(apps::buildLinkedListApp());
    wisp.start();
    simulator.runFor(10 * sim::oneSec);

    EXPECT_GT(audit.violationCount(), 0u)
        << "the paper's append/remove WAR bug must be caught";
    ASSERT_FALSE(audit.findings().empty());
    namespace lay = apps::linked_list_layout;
    const NvFinding &f = audit.findings()[0];
    // The offending store lands in the list's FRAM working set.
    EXPECT_GE(f.storeAddr, target::layout::framBase);
    EXPECT_LT(f.storeAddr,
              target::layout::framBase + target::layout::framSize);
    EXPECT_GE(f.interval, 1u);
    EXPECT_GT(f.lossTick, 0);
}

TEST(NvAuditIntegration, QuickstartCounterIsClean)
{
    sim::Simulator simulator(2024);
    energy::RfHarvester rf(30.0, 1.0);
    target::Wisp wisp(simulator, "wisp", &rf);
    NvAuditor audit = wisp.makeAuditor();
    wisp.attachAuditor(&audit);
    auto program = isa::assemble(runtime::programHeader() + R"(
.equ COUNTER, 0x5000
main:
    la   r5, COUNTER
loop:
    ldw  r1, [r5]
    addi r1, r1, 1
    stw  r1, [r5]
    br   loop
)" + runtime::libedbSource());
    wisp.flash(program);
    wisp.start();
    simulator.runFor(5 * sim::oneSec);

    EXPECT_GT(wisp.power().bootCount(), 1u);
    EXPECT_GT(audit.intervalReads(), 0u);
    EXPECT_EQ(audit.violationCount(), 0u)
        << "the benign RMW counter must not be flagged";
}

TEST(NvAuditIntegration, ActivityAppIsClean)
{
    sim::Simulator simulator(7);
    energy::RfHarvester rf(30.0, 1.0);
    target::Wisp wisp(simulator, "wisp", &rf);
    NvAuditor audit = wisp.makeAuditor();
    wisp.attachAuditor(&audit);
    wisp.flash(apps::buildActivityApp());
    wisp.start();
    simulator.runFor(5 * sim::oneSec);

    EXPECT_GT(wisp.power().bootCount(), 1u);
    EXPECT_EQ(audit.violationCount(), 0u);
}

TEST(NvAuditIntegration, CheckpointedLinkedListStillHasWindows)
{
    // Checkpoints bound the damage but the append/remove windows are
    // not covered by them, so violations still surface.
    sim::Simulator simulator(1);
    energy::RfHarvester rf(30.0, 1.0);
    target::WispConfig cfg;
    cfg.mcu.checkpointingEnabled = true;
    target::Wisp wisp(simulator, "wisp", &rf, nullptr, cfg);
    NvAuditor audit = wisp.makeAuditor();
    wisp.attachAuditor(&audit);
    apps::LinkedListOptions options;
    options.withCheckpoint = true;
    wisp.flash(apps::buildLinkedListApp(options));
    wisp.start();
    simulator.runFor(10 * sim::oneSec);

    EXPECT_GT(wisp.mcu().checkpointCount(), 0u);
    EXPECT_TRUE(audit.shadowValid());
}

// ---------------------------------------------------------------
// Soundness property: zero false positives on generated
// checkpoint-correct programs.
// ---------------------------------------------------------------

TEST(NvAuditProperty, NoFalsePositivesOnGeneratedPrograms)
{
    // The fuzz generator's register-class discipline makes every
    // rendered program checkpoint-correct by construction (no store
    // is ever guided by a value read from non-volatile memory), so
    // the auditor must stay silent across all of them — under
    // harvested power, forced brown-outs, and checkpointing both on
    // and off. 200 generated programs ~ a few hundred thousand
    // audited instructions.
    int conclusive = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        fuzz::CaseSpec spec = fuzz::generateCase(seed * 1315423911u);
        fuzz::OracleCase c = fuzz::makeOracleCase(spec);
        std::uint64_t violations = fuzz::auditViolations(c);
        EXPECT_EQ(violations, 0u)
            << "false positive on generated program, seed " << seed
            << " (checkpointing " << spec.checkpointing << "):\n"
            << c.program;
        if (violations == 0)
            ++conclusive;
    }
    EXPECT_EQ(conclusive, 200);
}

// ---------------------------------------------------------------
// Board surfacing: ConsistencyViolation sessions.
// ---------------------------------------------------------------

TEST(NvAuditBoard, FindingsOpenAConsistencySession)
{
    sim::Simulator simulator(1);
    energy::RfHarvester rf(30.0, 1.0);
    target::Wisp wisp(simulator, "wisp", &rf);
    edbdbg::EdbBoard edb(simulator, "edb", wisp);
    NvAuditor audit = wisp.makeAuditor();
    edb.attachAuditor(&audit);
    EXPECT_EQ(edb.auditor(), &audit);
    wisp.flash(apps::buildLinkedListApp());
    wisp.start();

    ASSERT_TRUE(edb.waitForSession(60 * sim::oneSec));
    auto *session = edb.session();
    ASSERT_NE(session, nullptr);
    EXPECT_EQ(session->reason(),
              edbdbg::SessionReason::ConsistencyViolation);
    EXPECT_STREQ(edbdbg::sessionReasonName(session->reason()),
                 "consistency-violation");
    auto findings = session->findings();
    ASSERT_FALSE(findings.empty());
    EXPECT_FALSE(nvFindingText(findings[0]).empty());
    session->resume();
    EXPECT_TRUE(edb.waitPassive(sim::oneSec));
}

TEST(NvAuditBoard, DetachRestoresQuietOperation)
{
    sim::Simulator simulator(5);
    energy::RfHarvester rf(30.0, 1.0);
    target::Wisp wisp(simulator, "wisp", &rf);
    edbdbg::EdbBoard edb(simulator, "edb", wisp);
    NvAuditor audit = wisp.makeAuditor();
    edb.attachAuditor(&audit);
    edb.attachAuditor(nullptr);
    EXPECT_EQ(edb.auditor(), nullptr);
    wisp.flash(apps::buildLinkedListApp());
    wisp.start();
    // With the auditor detached nothing breaks the target in.
    EXPECT_FALSE(edb.waitForSession(5 * sim::oneSec));
    EXPECT_EQ(audit.violationCount(), 0u);
}

} // namespace
