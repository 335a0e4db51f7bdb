/**
 * @file
 * The paper's Section 5.3.1 case study as a walkthrough: detecting
 * memory corruption early with a keep-alive assertion and the
 * interactive console.
 *
 * Act 1 — the symptom: the app runs fine on continuous power, then
 * dies mysteriously on harvested power.
 * Act 2 — the JTAG dead end: a conventional debugger powers the
 * target and the bug never reproduces.
 * Act 3 — the diagnosis: EDB's assert halts the target at the exact
 * moment the list invariant breaks and keeps it alive for
 * inspection through the Table 1 console.
 * Act 4 — no assert needed: the NV consistency auditor flags the
 * write-after-read violation automatically, naming the offending
 * store and the reboot interval it executed in.
 */

#include <cstdio>

#include "apps/linked_list.hh"
#include "baseline/jtag.hh"
#include "console/console.hh"
#include "edb/board.hh"
#include "energy/harvester.hh"
#include "mem/nv_audit.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"

using namespace edb;

namespace {

void
runConsole(console::Console &con, const char *cmd)
{
    std::printf("(edb) %s\n%s\n", cmd, con.execute(cmd).c_str());
}

} // namespace

int
main()
{
    namespace lay = apps::linked_list_layout;

    std::printf("== Act 1: the symptom ==\n");
    {
        sim::Simulator simulator(1);
        energy::RfHarvester rf(30.0, 1.0);
        target::Wisp wisp(simulator, "wisp", &rf, nullptr);
        wisp.flash(apps::buildLinkedListApp());
        wisp.start();
        simulator.runFor(10 * sim::oneSec);
        std::printf("harvested power, 10 s: %llu reboots, %llu "
                    "faults, state now '%s'\n",
                    (unsigned long long)wisp.power().bootCount(),
                    (unsigned long long)wisp.mcu().faultCount(),
                    mcu::mcuStateName(wisp.state()));
        std::printf("the main loop stopped and stays dead across "
                    "reboots; only a re-flash recovers it.\n\n");
    }

    std::printf("== Act 2: the JTAG dead end ==\n");
    {
        sim::Simulator simulator(2);
        energy::RfHarvester rf(30.0, 1.0);
        target::Wisp wisp(simulator, "wisp", &rf, nullptr);
        baseline::JtagDebugger jtag(simulator, "jtag", wisp);
        jtag.attach(); // powers the DUT, masking intermittence
        wisp.flash(apps::buildLinkedListApp());
        wisp.start();
        simulator.runFor(10 * sim::oneSec);
        std::printf("JTAG attached (continuous power), 10 s: %llu "
                    "reboots, %llu faults\n",
                    (unsigned long long)wisp.power().bootCount() - 1,
                    (unsigned long long)wisp.mcu().faultCount());
        std::printf("iterations completed: %u -- the bug never "
                    "manifests while observed this way.\n\n",
                    wisp.mcu().debugRead32(lay::iterCountAddr));
    }

    std::printf("== Act 3: EDB's keep-alive assert ==\n");
    {
        sim::Simulator simulator(3);
        energy::RfHarvester rf(30.0, 1.0);
        target::Wisp wisp(simulator, "wisp", &rf, nullptr);
        edbdbg::EdbBoard edb(simulator, "edb", wisp);
        console::Console con(edb);

        apps::LinkedListOptions options;
        options.withAssert = true;
        wisp.flash(apps::buildLinkedListApp(options));
        wisp.start();

        if (!edb.waitForSession(60 * sim::oneSec)) {
            std::printf("assert did not fire; try another seed\n");
            return 1;
        }
        std::printf("assert fired at t=%.1f ms -- target halted on "
                    "tethered power.\n\n",
                    sim::millisFromTicks(simulator.now()));
        runConsole(con, "status");
        std::printf("\ninspecting the live list through the "
                    "console:\n");
        char cmd[64];
        std::snprintf(cmd, sizeof cmd, "read 0x%x 4",
                      lay::tailPtrAddr);
        runConsole(con, cmd);
        auto tail = edb.session()->read32(lay::tailPtrAddr);
        if (tail) {
            std::snprintf(cmd, sizeof cmd, "read 0x%x 16", *tail);
            runConsole(con, cmd);
            auto next = edb.session()->read32(*tail);
            std::printf("tail = 0x%04x but tail->next = 0x%04x: the "
                        "tail pointer is stale.\n"
                        "An append was interrupted after linking the "
                        "node but before updating\nthe tail -- the "
                        "next remove would have written through a "
                        "NULL next pointer.\n\n",
                        *tail, next.value_or(0));
        }
        runConsole(con, "vcap");
        runConsole(con, "resume");
        edb.waitPassive(sim::oneSec);
        std::printf("\ntarget resumed with its energy state "
                    "restored (saved %.3f V, restored %.3f V).\n\n",
                    edb.lastSavedVolts(), edb.lastRestoredVolts());
    }

    std::printf("== Act 4: the NV consistency auditor ==\n");
    {
        sim::Simulator simulator(4);
        energy::RfHarvester rf(30.0, 1.0);
        target::Wisp wisp(simulator, "wisp", &rf, nullptr);
        edbdbg::EdbBoard edb(simulator, "edb", wisp);

        mem::NvAuditor audit = wisp.makeAuditor();
        edb.attachAuditor(&audit);

        // The unmodified buggy app: no assert, no instrumentation.
        wisp.flash(apps::buildLinkedListApp());
        wisp.start();

        if (!edb.waitForSession(60 * sim::oneSec)) {
            std::printf("no violation surfaced; try another seed\n");
            return 1;
        }
        auto *session = edb.session();
        std::printf("session opened at t=%.1f ms, reason '%s' -- no "
                    "assert was needed.\n",
                    sim::millisFromTicks(simulator.now()),
                    edbdbg::sessionReasonName(session->reason()));
        for (const mem::NvFinding &f : session->findings())
            std::printf("  %s\n", mem::nvFindingText(f).c_str());
        std::printf("the guide address is the FRAM tail pointer the "
                    "interrupted append had\nread: the exact "
                    "time-travel window Acts 1-3 chased by hand.\n");
        session->resume();
        edb.waitPassive(sim::oneSec);
    }
    return 0;
}
