/**
 * @file
 * The two single-device workloads.
 *
 * `continuous`: one WISP on the constant Thevenin bench supply
 * (3.0 V, 200 ohm) runs the linked-list app with the default engine
 * and noisy analog model. It never browns out, so every retired
 * instruction crosses only dispatch, the memory map, one analog
 * sub-step and one harvest-noise draw: the per-instruction hot path,
 * with no fleet, server or analyzer work in the loop.
 *
 * `intermittent`: the paper's rig (bench::Rig: RF at 30 dBm and 1 m,
 * EDB board attached) runs the activity-recognition app built with
 * EDB printf and the watchpoint stream on, as in Fig 11. Boots,
 * brown-outs, charging and an EDB active-mode save/restore per printf
 * join dispatch on the hot path, and it is the only workload that
 * exercises the EDB board.
 */

#include <memory>

#include "apps/activity.hh"
#include "apps/linked_list.hh"
#include "bench/common.hh"
#include "isa/assembler.hh"
#include "sim/snapshot.hh"
#include "workload.hh"

namespace edb::perfbench {

namespace {

/** Simulated length of one timed step (`runFor` chunk). */
constexpr sim::Tick chunk = 10 * sim::oneMs;
/** Boot / warm-up run before the first timed step. */
constexpr sim::Tick warmup = 100 * sim::oneMs;

/** EDB trace-stream counts, taken from the board's trace buffer. */
struct BoardCounts
{
    std::uint64_t restores = 0;
    std::uint64_t watchpoints = 0;
    std::uint64_t printfs = 0;
};

/** One simulated device: bench supply, or the EDB rig on RF. */
class Device
{
  public:
    Device(bool rig, std::uint64_t seed, const target::WispConfig &config)
    {
        if (rig) {
            rig_ = std::make_unique<bench::Rig>(
                seed, 30.0, 1.0, false, edbdbg::EdbConfig{}, config);
            // Count the board's trace records as they arrive instead
            // of retaining them, so memory stays flat over a run.
            trace::TraceBuffer &buf = rig_->board.traceBuffer();
            buf.setEnabled(false);
            buf.setTap([this](const trace::Record &r) {
                if (r.kind == trace::Kind::Watchpoint)
                    ++counts.watchpoints;
                else if (r.kind == trace::Kind::Printf)
                    ++counts.printfs;
                else if (r.kind == trace::Kind::Generic &&
                         r.text == "restore")
                    ++counts.restores;
            });
            rig_->board.setStream("watchpoints", true);
        } else {
            sim_ = std::make_unique<sim::Simulator>(seed);
            supply = std::make_unique<energy::TheveninHarvester>(3.0, 200.0);
            wisp_ = std::make_unique<target::Wisp>(*sim_, "wisp",
                                                   supply.get(), nullptr,
                                                   config);
        }
    }
    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    sim::Simulator &sim() { return rig_ ? rig_->sim : *sim_; }
    target::Wisp &wisp() { return rig_ ? rig_->wisp : *wisp_; }
    edbdbg::EdbBoard *board() { return rig_ ? &rig_->board : nullptr; }
    const energy::Harvester &harvester() const
    {
        return rig_ ? static_cast<const energy::Harvester &>(rig_->rf)
                    : *supply;
    }
    std::uint32_t digest() { return digestOf(wisp(), sim()); }

    void
    saveTo(sim::SnapshotWriter &w)
    {
        wisp().saveState(w);
        if (board())
            board()->saveState(w);
    }

    bool
    restoreFrom(std::vector<std::uint8_t> image)
    {
        sim::SnapshotReader r;
        if (!r.load(std::move(image)))
            return false;
        sim::EventRearmer rearmer(sim());
        wisp().restoreState(r, rearmer);
        if (board())
            board()->restoreState(r, rearmer);
        if (!r.ok())
            return false;
        rearmer.flush();
        return true;
    }

    BoardCounts counts;

  private:
    std::unique_ptr<bench::Rig> rig_;
    std::unique_ptr<sim::Simulator> sim_;
    std::unique_ptr<energy::TheveninHarvester> supply;
    std::unique_ptr<target::Wisp> wisp_;
};

struct Spec
{
    bool rig = false;
    std::string listing;
    /** Timed step at which the exact counts are taken. */
    std::uint64_t window = 0;
    /** Timed step compared against the reference engine (0 = none). */
    std::uint64_t refPrefix = 0;
    /** Simulated window of one ablation row. */
    sim::Tick ablationWindow = 0;
    unsigned ablationReps = 0;
};

/** Assemble, construct, flash, boot and warm up one device. */
std::unique_ptr<Device>
setUp(Run &run, const Spec &spec, const target::WispConfig &config,
      int run_id)
{
    Spans::Scope all(run.spans, "setup", run_id);
    isa::Program program;
    {
        Spans::Scope s(run.spans, "setup.assemble", run_id);
        program = isa::assemble(spec.listing);
    }
    std::unique_ptr<Device> dev;
    {
        Spans::Scope s(run.spans, "setup.construct", run_id);
        dev = std::make_unique<Device>(spec.rig, run.opt.seed, config);
        dev->wisp().flash(program);
        dev->wisp().start();
    }
    Spans::Scope s(run.spans, "setup.warmup", run_id);
    dev->sim().runFor(warmup);
    return dev;
}

/** Snapshot of a default device after warm-up. */
std::vector<std::uint8_t>
warmState(Run &run, const Spec &spec)
{
    std::unique_ptr<Device> dev =
        setUp(run, spec, target::WispConfig{}, 99);
    sim::SnapshotWriter w;
    dev->saveTo(w);
    return w.finish();
}

/** Host seconds and instructions of one device over `window`: a fresh
 *  set-up, or restored from `start` when that is not empty. */
RowResult
measureRow(Run &run, const Spec &spec, Row row,
           const std::vector<std::uint8_t> &start)
{
    const target::WispConfig config = applyRow(row, target::WispConfig{});
    std::unique_ptr<Device> dev;
    if (start.empty()) {
        dev = setUp(run, spec, config, 99);
    } else {
        dev = std::make_unique<Device>(spec.rig, run.opt.seed, config);
        dev->wisp().flash(isa::assemble(spec.listing));
        if (!dev->restoreFrom(start))
            run.rep.check(std::string("ablation.restore.") + rowName(row),
                          false, "warm-up snapshot did not restore");
    }
    const std::uint64_t before = dev->wisp().mcu().instrCount();
    const double t0 = nowSeconds();
    dev->sim().runFor(spec.ablationWindow);
    RowResult r;
    r.seconds = nowSeconds() - t0;
    r.instrs = dev->wisp().mcu().instrCount() - before;
    return r;
}

void
snapshotProbe(Run &run, const Spec &spec, Device &dev)
{
    constexpr unsigned reps = 21;
    // Snapshots are bit-identical except mid-charge-ramp, where the
    // board documents that the ramp restarts from the restored level:
    // step to the next passive instant first.
    for (int i = 0; i < 1000 && dev.board() &&
                    (!dev.board()->passive() ||
                     dev.board()->chargeCircuit().active());
         ++i)
        dev.sim().runFor(sim::oneMs);
    std::vector<std::uint8_t> image;
    const double save = medianSeconds(reps, [&] {
        Spans::Scope s(run.spans, "snapshot.save", 3);
        sim::SnapshotWriter w;
        dev.saveTo(w);
        image = w.finish();
    });
    const isa::Program program = isa::assemble(spec.listing);
    Samples adopt;
    bool same = true;
    for (unsigned i = 0; i < reps; ++i) {
        Device fresh(spec.rig, run.opt.seed, target::WispConfig{});
        fresh.wisp().flash(program);
        const double t0 = nowSeconds();
        bool ok;
        {
            Spans::Scope s(run.spans, "snapshot.adopt", 3);
            ok = fresh.restoreFrom(image);
        }
        adopt.add(nowSeconds() - t0);
        same = same && ok && fresh.digest() == dev.digest();
    }
    run.rep.check("snapshot.roundtrip", same,
                  "restored digest equals the saved device's");
    run.rep.metric("sim.snapshot_bytes", static_cast<double>(image.size()),
                   "bytes", 0, "one device");
    run.rep.metric("sim.snapshot_save_us", save * 1e6, "us", reps,
                   "Wisp+board saveState, median");
    run.rep.metric("sim.snapshot_adopt_us", adopt.median() * 1e6, "us",
                   reps, "restoreState into a fresh device, median");
}

void
runSingle(Run &run, const Spec &spec)
{
    Report &rep = run.rep;

    // The device the loop runs. Set-up copies made during the loop give
    // setup_s, and every copy must reach the same state after warm-up.
    std::unique_ptr<Device> dev =
        setUp(run, spec, target::WispConfig{}, 100);
    const std::uint32_t firstDigest = dev->digest();
    bool repeat = true;
    int copies = 0;
    const auto setupCopy = [&] {
        const double t0 = nowSeconds();
        std::unique_ptr<Device> copy =
            setUp(run, spec, target::WispConfig{}, 101 + copies++);
        const double s = nowSeconds() - t0;
        repeat = repeat && copy->digest() == firstDigest;
        return s;
    };

    std::uint32_t prefixDigest = 0;
    Counts window;
    BoardCounts windowBoard;
    LoopResult loop = timedLoop(
        run, "runFor", run.opt.seconds,
        std::max<std::uint64_t>(spec.window, Samples::needed(0.9)),
        [&](std::uint64_t i) {
            dev->sim().runFor(chunk);
            if (i + 1 == spec.refPrefix)
                prefixDigest = dev->digest();
            if (i + 1 == spec.window) {
                window.add(dev->wisp(), dev->sim().now());
                windowBoard = dev->counts;
            }
        },
        [&] {
            return Progress{dev->wisp().mcu().instrCount(),
                            sim::millisFromTicks(dev->sim().now())};
        },
        setupCopy);
    const double setupS = reportLoop(
        run, loop, "runFor(10 ms) chunks",
        "assemble + construct + boot + " +
            std::to_string(sim::millisFromTicks(warmup)) +
            " sim-ms warm-up");
    rep.check("setup.repeat", repeat,
              "device digest after warm-up identical across " +
                  std::to_string(copies + 1) + " set-ups");
    window.record(rep);
    window.layerMetrics(rep);
    if (spec.rig) {
        rep.count("edb.board.restores", windowBoard.restores);
        rep.count("edb.board.watchpoints", windowBoard.watchpoints);
        rep.count("edb.board.printf_lines", windowBoard.printfs);
        const double ws = window.worldSeconds();
        const std::string perS = "per simulated second (fixed window)";
        rep.metric("edb.board.restores_per_sim_s",
                   windowBoard.restores / ws, "1/s", 0, perS);
        rep.metric("edb.board.watchpoints_per_sim_s",
                   windowBoard.watchpoints / ws, "1/s", 0, perS);
        rep.metric("edb.board.printf_lines",
                   static_cast<double>(windowBoard.printfs), "count", 0,
                   "fixed window");
    }
    rep.metric("fleet.build_ms_per_world", setupS * 1e3, "ms",
               loop.setupS.n(), "setup_s of the one device");

    if (spec.refPrefix) {
        // The reference engine must reach the same state over the
        // prefix: the bit-identical-engines contract.
        std::unique_ptr<Device> ref = setUp(
            run, spec, applyRow(Row::Reference, target::WispConfig{}), 98);
        ref->sim().runFor(static_cast<sim::Tick>(spec.refPrefix) * chunk);
        rep.check("reference.digest", ref->digest() == prefixDigest,
                  "default vs reference engine after " +
                      std::to_string(spec.refPrefix) + " chunks");
    }

    if (run.opt.trace) {
        std::vector<Row> same = {Row::FastPath, Row::Reference};
        std::vector<std::uint8_t> start;
        if (!spec.rig) {
            // It never browns out, so noise cannot change the path. It
            // does move the instant the capacitor first reaches turn-on
            // by microseconds, which shifts a fixed-time window against
            // the app's loop: every row starts from one warm state.
            same.push_back(Row::NoiseFree);
            start = warmState(run, spec);
        }
        ablation(run, spec.ablationReps, same, [&](Row row) {
            return measureRow(run, spec, row, start);
        });
        snapshotProbe(run, spec, *dev);
        layerProbes(run, dev->harvester(), dev->wisp(), {spec.listing});
    }
}

} // namespace

void
runContinuous(Run &run)
{
    Spec spec;
    spec.listing = apps::linkedListSource();
    spec.window = 1500;
    spec.refPrefix = 100;
    spec.ablationWindow = 300 * sim::oneMs;
    spec.ablationReps = 5;
    runSingle(run, spec);
}

void
runIntermittent(Run &run)
{
    apps::ActivityOptions options;
    options.output = apps::ActivityOutput::EdbPrintf;
    Spec spec;
    spec.rig = true;
    spec.listing = apps::activitySource(options);
    spec.window = 1000;
    spec.ablationWindow = 1000 * sim::oneMs;
    spec.ablationReps = 3;
    runSingle(run, spec);
}

} // namespace edb::perfbench
