/**
 * @file
 * perfbench: one workload per run, timed end to end (untraced) or
 * split by layer (traced). See perfbench/README.md.
 *
 *   perfbench --workload <continuous|intermittent|fleet|debug-server>
 *             --seed N --seconds S --trace 0|1 [--trace-out FILE]
 *
 * Prints a metric table and, as its last line, `PERFBENCH_RECORD`
 * followed by a JSON object with every metric (value, unit, sample
 * count, base), the exact simulated counts, the output checks and a
 * span summary. Exits 1 when any check failed.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.hh"
#include "workload.hh"

using namespace edb::perfbench;

namespace {

/** Per-layer metrics of layers a workload may not exercise; reported
 *  as 0 there so every traced run carries the same names. */
const struct
{
    const char *name;
    const char *unit;
} layerSpecific[] = {
    {"edb.board.restores_per_sim_s", "1/s"},
    {"edb.board.watchpoints_per_sim_s", "1/s"},
    {"edb.board.printf_lines", "count"},
    {"edb.server.commands_served", "count"},
    {"edb.server.deadlined", "count"},
    {"edb.server.backpressured", "count"},
    {"edb.server.hit_delivery_ratio", "ratio"},
    {"edb.server.evals_per_epoch", "1/epoch"},
    {"edb.rpc_epochs_p99", "epochs"},
    {"fleet.parallel_efficiency", "ratio"},
    {"fleet.steal_ratio", "ratio"},
    {"fleet.migrations", "count"},
    {"fleet.instr_imbalance", "ratio"},
    {"rfid.reply_ratio", "ratio"},
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "continuous|intermittent|fleet|debug-server --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = v;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(v, &end, 10);
            if (*end)
                return usage("bad --seed");
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(v, &end);
            if (*end || !(opt.seconds > 0.0))
                return usage("bad --seconds");
        } else if (arg == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                return usage("bad --trace");
            opt.trace = v[0] == '1';
        } else if (arg == "--trace-out") {
            opt.traceOut = v;
        } else {
            return usage(("unknown option " + arg).c_str());
        }
    }

    void (*workload)(Run &) = nullptr;
    if (opt.workload == "continuous")
        workload = runContinuous;
    else if (opt.workload == "intermittent")
        workload = runIntermittent;
    else if (opt.workload == "fleet")
        workload = runFleet;
    else if (opt.workload == "debug-server")
        workload = runDebugServer;
    else
        return usage("unknown --workload");

    Report rep(opt.workload, opt.seed, opt.trace);
    Spans spans(opt.trace);
    Run run{opt, rep, spans};
    workload(run);

    if (opt.trace)
        for (const auto &m : layerSpecific)
            if (!rep.metrics().count(m.name))
                rep.metric(m.name, 0.0, m.unit, 0,
                           "layer not exercised by this workload");
    rep.metric("peak_rss_mb", peakRssMb(), "MB", 0,
               "getrusage ru_maxrss at exit");
    if (opt.trace && !opt.traceOut.empty())
        rep.check("trace.written", spans.writeChrome(opt.traceOut),
                  opt.traceOut);
    rep.metric("fail_ratio", rep.failRatio(), "ratio", rep.attempted(),
               "failed over attempted operations");
    rep.print(spans);
    return rep.correct() ? 0 : 1;
}
