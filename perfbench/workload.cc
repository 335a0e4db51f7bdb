#include "workload.hh"

#include <algorithm>

#include "analysis/analyzer.hh"
#include "analysis/cost_model.hh"
#include "energy/power_system.hh"
#include "isa/assembler.hh"
#include "sim/snapshot.hh"

namespace edb::perfbench {

LoopResult
timedLoop(Run &run, const std::string &span, double seconds,
          std::uint64_t min_steps,
          const std::function<void(std::uint64_t)> &step,
          const std::function<Progress()> &progress,
          const std::function<double()> &setup)
{
    constexpr std::uint64_t block = 16;
    const double rateBlockS = seconds / rateBlocks;
    LoopResult r;
    const double start = nowSeconds();
    double now = start;
    double blockStart = start;
    unsigned batches = 0;
    Progress blockFrom = progress();
    const auto done = [&] {
        return now - start >= seconds && r.steps >= min_steps &&
               r.instrRate.n() >= Samples::needed(0.1) &&
               (!setup || batches == setupBatches);
    };
    while (!done()) {
        const bool traced =
            run.spans.enabled() && (r.steps / block) % 2 == 0;
        run.spans.setPaused(!traced);
        const int index = run.spans.begin(span, 0);
        const double t0 = nowSeconds();
        step(r.steps);
        now = nowSeconds();
        run.spans.end(index);
        const double ms = (now - t0) * 1e3;
        r.stepMs.add(ms);
        if (run.spans.enabled())
            (traced ? r.tracedMs : r.untracedMs).add(ms);
        ++r.steps;
        if (now - blockStart < rateBlockS)
            continue;
        const Progress p = progress();
        const double dt = now - blockStart;
        r.instrRate.add((p.instrs - blockFrom.instrs) / dt / 1e6);
        r.simMsRate.add((p.worldMs - blockFrom.worldMs) / dt);
        blockFrom = p;
        blockStart = now;
        // Batch k is due k/setupBatches of the way through the run.
        if (setup && batches < setupBatches &&
            now - start >= batches * seconds / setupBatches) {
            run.spans.setPaused(false);
            for (unsigned i = 0; i < setupsPerBatch; ++i)
                r.setupS.add(setup());
            ++batches;
            blockStart = nowSeconds();
        }
    }
    run.spans.setPaused(false);
    r.seconds = now - start;
    run.rep.addAttempted(r.steps);
    return r;
}

double
reportLoop(Run &run, const LoopResult &loop, const std::string &step_base,
           const std::string &setup_base)
{
    Report &rep = run.rep;
    const std::string blocks =
        "10th percentile over " + std::to_string(loop.instrRate.n()) +
        " blocks of " + step_base;
    rep.percentile("sim_minstr_per_s", loop.instrRate, 0.1, "Minstr/s",
                   "instructions retired, all worlds; " + blocks);
    rep.percentile("sim_ms_per_s", loop.simMsRate, 0.1, "ms/s",
                   "simulated world-ms; " + blocks);
    rep.metric("sim_minstr_per_s_median", loop.instrRate.median(),
               "Minstr/s", loop.instrRate.n(),
               "median over the same blocks");
    rep.percentile("epoch_ms_p50", loop.stepMs, 0.5, "ms");
    rep.percentile("epoch_ms_p90", loop.stepMs, 0.9, "ms");
    rep.percentile("setup_s", loop.setupS, 0.9, "s",
                   setup_base + "; 90th percentile of " +
                       std::to_string(loop.setupS.n()) +
                       " set-ups spread over the timed loop");
    rep.metric("loop_s", loop.seconds, "s", loop.steps, step_base);
    if (run.spans.enabled() && !loop.untracedMs.empty()) {
        const double off = loop.untracedMs.median();
        rep.metric("trace.overhead_pct",
                   (loop.tracedMs.median() / off - 1.0) * 100.0, "%",
                   loop.steps,
                   "median untraced step " + std::to_string(off) + " ms");
    }
    return loop.setupS.percentile(0.9).value_or(0.0);
}

void
Counts::add(const target::Wisp &wisp, sim::Tick now)
{
    const mcu::Mcu &m = wisp.mcu();
    instrs += m.instrCount();
    cycles += m.cycleCount();
    reboots += m.rebootCount();
    checkpoints += m.checkpointCount();
    restores += m.restoreCount();
    boots += wisp.power().bootCount();
    brownouts += wisp.power().brownOutCount();
    framWrites += wisp.framRegion().writeCount();
    sramWrites += wisp.sramRegion().writeCount();
    const mcu::Mcu::SuperblockStats &sb = m.superblockStats();
    sbBlockInstrs += sb.blockInstrs;
    sbBailouts += sb.bailouts;
    sbFallbacks += sb.fallbacks;
    sbRebuilds += sb.rebuilds;
    worldNs += static_cast<std::uint64_t>(now / (sim::oneUs / 1000));
}

void
Counts::record(Report &rep) const
{
    rep.count("sim.instrs", instrs);
    rep.count("sim.cycles", cycles);
    rep.count("sim.reboots", reboots);
    rep.count("sim.checkpoints", checkpoints);
    rep.count("sim.restores", restores);
    rep.count("sim.boots", boots);
    rep.count("sim.brownouts", brownouts);
    rep.count("sim.fram_writes", framWrites);
    rep.count("sim.sram_writes", sramWrites);
    rep.count("sim.sb_block_instrs", sbBlockInstrs);
    rep.count("sim.sb_bailouts", sbBailouts);
    rep.count("sim.sb_fallbacks", sbFallbacks);
    rep.count("sim.sb_rebuilds", sbRebuilds);
    rep.count("sim.world_ns", worldNs);
}

void
Counts::layerMetrics(Report &rep) const
{
    const double ki = std::max<double>(1.0, instrs / 1e3);
    const double s = std::max(1e-12, worldSeconds());
    const std::string perK = "per 1000 of " + std::to_string(instrs) +
                             " instructions (fixed window)";
    const std::string perS = "per simulated world-second of " +
                             std::to_string(s) + " (fixed window)";
    rep.metric("mcu.sb_hit_ratio",
               instrs ? static_cast<double>(sbBlockInstrs) / instrs : 0.0,
               "ratio", 0,
               "block-retired over all " + std::to_string(instrs) +
                   " instructions");
    rep.metric("mcu.sb_bailouts_per_kinstr", sbBailouts / ki, "1/kinstr",
               0, perK);
    rep.metric("mcu.sb_fallbacks_per_kinstr", sbFallbacks / ki,
               "1/kinstr", 0, perK);
    rep.metric("mcu.sb_rebuilds", static_cast<double>(sbRebuilds),
               "count", 0, "fixed window");
    rep.metric("mcu.cpi",
               instrs ? static_cast<double>(cycles) / instrs : 0.0,
               "cycles/instr", 0, perK);
    rep.metric("mcu.checkpoints_per_sim_s", checkpoints / s, "1/s", 0,
               perS);
    rep.metric("mcu.restores_per_sim_s", restores / s, "1/s", 0, perS);
    rep.metric("energy.boots_per_sim_s", boots / s, "1/s", 0, perS);
    rep.metric("energy.brownouts_per_sim_s", brownouts / s, "1/s", 0,
               perS);
    rep.metric("mem.fram_writes_per_kinstr", framWrites / ki,
               "1/kinstr", 0, perK);
    rep.metric("mem.sram_writes_per_kinstr", sramWrites / ki,
               "1/kinstr", 0, perK);
}

std::uint32_t
digestOf(const target::Wisp &wisp, const sim::Simulator &sim)
{
    sim::SnapshotWriter w;
    const mcu::Mcu &m = wisp.mcu();
    w.u64(m.instrCount());
    w.u64(m.cycleCount());
    w.u64(m.rebootCount());
    w.u64(m.faultCount());
    w.u64(m.checkpointCount());
    w.u64(m.restoreCount());
    w.u64(wisp.power().bootCount());
    w.u32(m.pc());
    w.u8(static_cast<std::uint8_t>(m.state()));
    w.u32(m.flags().pack());
    for (unsigned i = 0; i < isa::numRegs; ++i)
        w.u32(m.reg(i));
    w.f64(wisp.power().voltageNoAdvance());
    w.tick(sim.now());
    w.rng(sim.rng());
    const mem::Ram &fram = wisp.framRegion();
    w.u32(sim::crc32(fram.data(), fram.size()));
    const mem::Ram &sram = wisp.sramRegion();
    w.u32(sim::crc32(sram.data(), sram.size()));
    std::vector<std::uint8_t> image = w.finish();
    return sim::crc32(image.data(), image.size());
}

std::uint32_t
foldDigest(std::uint32_t acc, std::uint32_t d)
{
    std::uint8_t bytes[8];
    for (int i = 0; i < 4; ++i) {
        bytes[i] = static_cast<std::uint8_t>(acc >> (8 * i));
        bytes[4 + i] = static_cast<std::uint8_t>(d >> (8 * i));
    }
    return sim::crc32(bytes, sizeof(bytes));
}

const char *
rowName(Row row)
{
    switch (row) {
      case Row::Default: return "default";
      case Row::NoiseFree: return "noise_free";
      case Row::FastPath: return "fast_path";
      case Row::Reference: return "reference";
    }
    return "?";
}

target::WispConfig
applyRow(Row row, target::WispConfig config)
{
    switch (row) {
      case Row::Default:
        break;
      case Row::NoiseFree:
        config.power.harvestNoiseSigma = 0.0;
        break;
      case Row::FastPath:
        config.mcu.superblocks = false;
        break;
      case Row::Reference:
        config.mcu.predecodeCache = false;
        config.mcu.flatDispatch = false;
        config.mcu.batchedDrain = false;
        config.mcu.batchedSlices = false;
        config.mcu.superblocks = false;
        config.power.fastIntegration = false;
        break;
    }
    return config;
}

void
ablation(Run &run, unsigned reps, const std::vector<Row> &same_instrs,
         const std::function<RowResult(Row)> &measure)
{
    const Row rows[] = {Row::Default, Row::NoiseFree, Row::FastPath,
                        Row::Reference};
    std::vector<Samples> nsPerInstr(4);
    std::vector<std::uint64_t> instrs(4, 0);
    for (unsigned r = 0; r < reps; ++r) {
        for (Row row : rows) {
            const int index = run.spans.begin(
                std::string("ablation.") + rowName(row), 1 + r);
            RowResult res = measure(row);
            run.spans.end(index);
            const auto k = static_cast<std::size_t>(row);
            nsPerInstr[k].add(res.seconds * 1e9 /
                              std::max<std::uint64_t>(1, res.instrs));
            if (r > 0 && res.instrs != instrs[k])
                run.rep.check(std::string("ablation.repeat.") +
                                  rowName(row),
                              false, "instruction count changed");
            instrs[k] = res.instrs;
        }
    }
    const std::string base = "host ns per retired instruction, median of " +
                             std::to_string(reps) + " runs of " +
                             std::to_string(instrs[0]) +
                             " default-row instructions";
    for (Row row : rows) {
        const auto k = static_cast<std::size_t>(row);
        if (row != Row::NoiseFree)
            run.rep.metric(std::string("mcu.ns_per_instr.") +
                               rowName(row),
                           nsPerInstr[k].median(), "ns", reps, base);
        run.rep.count(std::string("ablation.instrs.") + rowName(row),
                      instrs[k]);
    }
    run.rep.metric("energy.noise_ns_per_instr",
                   nsPerInstr[0].median() - nsPerInstr[1].median(), "ns",
                   reps, "default row minus noise-free row, " + base);
    for (Row row : same_instrs) {
        const auto k = static_cast<std::size_t>(row);
        run.rep.check(std::string("ablation.instrs.") + rowName(row),
                      instrs[k] == instrs[0],
                      std::to_string(instrs[k]) + " vs default " +
                          std::to_string(instrs[0]));
    }
}

double
medianSeconds(unsigned reps, const std::function<void()> &fn)
{
    Samples s;
    for (unsigned i = 0; i < reps; ++i) {
        const double t0 = nowSeconds();
        fn();
        s.add(nowSeconds() - t0);
    }
    return s.median();
}

namespace {

/** Host ns per simulated us of PowerSystem::advanceTo on a
 *  standalone system, with a load of `amps` on or off. */
double
advanceCost(std::uint64_t seed, const target::WispConfig &config,
            const energy::Harvester &harvester, bool load_on)
{
    constexpr sim::Tick stepTicks = 100 * sim::oneUs;
    constexpr int steps = 2000;
    Samples s;
    for (int rep = 0; rep < 5; ++rep) {
        sim::Simulator simulator(seed);
        energy::PowerSystem power(simulator, "power", config.power,
                                  &harvester);
        power.addLoad("load", config.mcu.activeAmps, load_on);
        sim::Tick t = 0;
        const double t0 = nowSeconds();
        for (int i = 0; i < steps; ++i) {
            t += stepTicks;
            power.advanceTo(t);
        }
        const double host = nowSeconds() - t0;
        s.add(host * 1e9 / (steps * sim::microsFromTicks(stepTicks)));
    }
    return s.median();
}

} // namespace

void
layerProbes(Run &run, const energy::Harvester &harvester,
            const target::Wisp &wisp,
            const std::vector<std::string> &listings)
{
    Report &rep = run.rep;
    {
        Spans::Scope span(run.spans, "probe.advance", 2);
        const std::string base =
            "host ns per simulated us, 5 x 2000 advanceTo(+100us)";
        rep.metric("energy.advance_ns_per_sim_us.on",
                   advanceCost(run.opt.seed, wisp.config(), harvester,
                               true),
                   "ns/us", 5, base + ", load on");
        rep.metric("energy.advance_ns_per_sim_us.off",
                   advanceCost(run.opt.seed, wisp.config(), harvester,
                               false),
                   "ns/us", 5, base + ", charging");
    }

    analysis::CostModel model;
    {
        Spans::Scope span(run.spans, "probe.cost_model", 2);
        rep.metric("analysis.cost_model_us",
                   medianSeconds(21,
                                 [&] {
                                     model = analysis::CostModel::fromWisp(
                                         wisp);
                                 }) *
                       1e6,
                   "us", 21, "CostModel::fromWisp, median of 21");
    }

    Samples assembleMs, analyzeUsPerInstr;
    std::uint64_t analyzed = 0;
    for (const std::string &listing : listings) {
        isa::Program program;
        {
            Spans::Scope span(run.spans, "probe.assemble", 2);
            assembleMs.add(
                medianSeconds(5, [&] { program = isa::assemble(listing); }) *
                1e3);
        }
        Spans::Scope span(run.spans, "probe.analyze", 2);
        analysis::Report report;
        const double sec = medianSeconds(
            5, [&] { report = analysis::analyze(program, model); });
        analyzed += report.analyzedInstructions;
        analyzeUsPerInstr.add(
            sec * 1e6 /
            std::max<unsigned>(1, report.analyzedInstructions));
    }
    rep.metric("isa.assemble_ms", assembleMs.median(), "ms",
               listings.size(),
               "median over " + std::to_string(listings.size()) +
                   " programs of the median of 5 assemblies");
    rep.metric("analysis.analyze_us_per_instr", analyzeUsPerInstr.median(),
               "us/instr", listings.size(),
               "analyze time over Report::analyzedInstructions (" +
                   std::to_string(analyzed) + " in total), median over " +
                   std::to_string(listings.size()) + " programs");
}

} // namespace edb::perfbench
