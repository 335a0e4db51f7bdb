/**
 * @file
 * The two multi-world workloads.
 *
 * `fleet`: 1000 tags on the default checkpointing firmware, 5 ms
 * epochs, rebalancing on, 2 worker threads. It is the only
 * workload where the work-stealing pool, the epoch barrier, the
 * slotted RF arbiter and snapshot migration do real work; its short
 * powered bursts with a checkpoint commit every loop use mcu / energy
 * / mem very differently from `continuous`.
 *
 * `debug-server`: an inline fleet of 16 tags under DebugServer. Even
 * worlds run the default firmware, odd worlds a fuzz::generateCase
 * program at the workload seed (as fleet_soak's audit sweep does).
 * Four closed-loop RpcClients each send their next request only after
 * the previous reply: three read-only sessions cycle through reads,
 * conditional breakpoints and static analysis, and one `rw` session
 * adds FRAM data writes and byte-identical rewrites of a code word,
 * which run the predecode/superblock invalidation path without
 * changing program semantics. Server polling, JSON-RPC framing,
 * virtual-breakpoint evaluation and the analyzer work here and
 * nowhere else.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>

#include "analysis/analyzer.hh"
#include "analysis/cost_model.hh"
#include "edb/server.hh"
#include "fleet/fleet.hh"
#include "fuzz/generator.hh"
#include "isa/listing.hh"
#include "rfid/channel.hh"
#include "workload.hh"

namespace edb::perfbench {

namespace {

/** The fleet_soak base configuration: tags start charged on a
 *  4.7 uF cap with checkpointing on, so they execute from epoch one. */
fleet::FleetConfig
fleetConfig(std::uint64_t seed, unsigned tags, unsigned threads)
{
    fleet::FleetConfig cfg;
    cfg.tags = tags;
    cfg.threads = threads;
    cfg.seed = seed;
    cfg.epochLength = 5 * sim::oneMs;
    cfg.wisp.power.initialVolts = 2.6;
    cfg.wisp.power.capacitanceF = 4700e-9;
    cfg.wisp.mcu.checkpointingEnabled = true;
    cfg.rebalancePeriod = 4;
    return cfg;
}

/** Two workers, leaving the other cores of a 4-core host free. With a
 *  worker on every core, one busy process on one core (CPU- or
 *  memory-bound) cut the fleet's block rates by 18%, and two ten-seed
 *  sets drifted 26% apart; with two workers the same process changed
 *  nothing beyond run-to-run noise. */
unsigned
workerThreads()
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return std::min(2u, hw);
}

std::uint32_t
fleetDigest(const fleet::Fleet &f)
{
    std::uint32_t acc = 0;
    for (const fleet::WorldDigest &d : f.digests())
        acc = foldDigest(acc, d.crc);
    return acc;
}

Counts
fleetCounts(fleet::Fleet &f)
{
    Counts c;
    for (std::size_t i = 0; i < f.size(); ++i)
        c.add(f.world(i).wisp(), f.now());
    return c;
}

/** Max over mean of per-world instructions retired last epoch. */
double
imbalance(const fleet::Fleet &f)
{
    std::uint64_t max = 0, sum = 0;
    for (std::size_t i = 0; i < f.size(); ++i) {
        const std::uint64_t n = f.world(i).instrsThisEpoch();
        max = std::max(max, n);
        sum += n;
    }
    return sum ? static_cast<double>(max) * f.size() / sum : 1.0;
}

/** Fleet-level per-layer metrics read from public counters. */
void
fleetLayerMetrics(Run &run, const fleet::Fleet &f, std::uint64_t epochs,
                  const Samples &imbalances)
{
    Report &rep = run.rep;
    const fleet::ChannelStats &ch = f.channelStats();
    rep.count("fleet.epochs", epochs);
    rep.count("fleet.migrations", f.migrations());
    rep.count("rfid.attempts", ch.attempts);
    rep.count("rfid.replies", ch.replies);
    rep.metric("fleet.migrations", static_cast<double>(f.migrations()),
               "count", epochs,
               "over " + std::to_string(epochs) + " epochs (fixed window)");
    rep.metric("rfid.reply_ratio",
               ch.attempts ? static_cast<double>(ch.replies) / ch.attempts
                           : 0.0,
               "ratio", 0,
               "replies over " + std::to_string(ch.attempts) +
                   " uplink attempts (fixed window)");
    const double local = static_cast<double>(f.pool().executedLocal());
    const double stolen = static_cast<double>(f.pool().executedStolen());
    rep.metric("fleet.steal_ratio",
               local + stolen > 0 ? stolen / (local + stolen) : 0.0,
               "ratio", 0,
               "stolen over " + std::to_string(local + stolen) +
                   " world-epoch tasks");
    if (!imbalances.empty())
        rep.metric("fleet.instr_imbalance", imbalances.mean(), "ratio",
                   imbalances.n(),
                   "max over mean per-world instructions per epoch, "
                   "mean over epochs");
}

/** `sim.snapshot_*`: World::saveTo / adoptFrom on sampled worlds. */
void
fleetSnapshotProbe(Run &run, fleet::Fleet &f)
{
    const std::size_t samples = std::min<std::size_t>(16, f.size());
    Samples save, adopt, bytes;
    bool same = true;
    for (std::size_t k = 0; k < samples; ++k) {
        const std::size_t i = k * f.size() / samples;
        fleet::World &w = f.world(i);
        sim::SnapshotWriter writer;
        double t0 = nowSeconds();
        {
            Spans::Scope s(run.spans, "snapshot.save", 3);
            w.saveTo(writer);
        }
        save.add(nowSeconds() - t0);
        bytes.add(static_cast<double>(writer.finish().size()));
        fleet::World fresh(f.worldProgram(i), w.config());
        t0 = nowSeconds();
        bool ok;
        {
            Spans::Scope s(run.spans, "snapshot.adopt", 3);
            ok = fresh.adoptFrom(w);
        }
        adopt.add(nowSeconds() - t0);
        same = same && ok && fresh.digest() == w.digest();
    }
    run.rep.check("snapshot.roundtrip", same,
                  "adopted world digests equal the originals");
    const std::string base =
        "median over " + std::to_string(samples) + " sampled worlds";
    run.rep.metric("sim.snapshot_bytes", bytes.median(), "bytes",
                   samples, base);
    run.rep.metric("sim.snapshot_save_us", save.median() * 1e6, "us",
                   samples, "World::saveTo, " + base);
    run.rep.metric("sim.snapshot_adopt_us", adopt.median() * 1e6, "us",
                   samples, "World::adoptFrom, " + base);
}

/** `rfid.resolve_us`: a standalone arbiter at the observed mean
 *  attempt count per epoch. */
void
resolveProbe(Run &run, const fleet::Fleet &f, std::uint64_t epochs)
{
    const std::size_t attempts = static_cast<std::size_t>(
        f.channelStats().attempts / std::max<std::uint64_t>(1, epochs));
    std::vector<std::uint32_t> tags(std::max<std::size_t>(1, attempts));
    for (std::size_t i = 0; i < tags.size(); ++i)
        tags[i] = static_cast<std::uint32_t>(i);
    rfid::SlottedArbiter arbiter(rfid::RfEnvConfig{}, run.opt.seed);
    std::uint64_t round = 0;
    Samples us;
    for (int rep = 0; rep < 201; ++rep) {
        Spans::Scope s(run.spans, "rfid.resolve", 4);
        const double t0 = nowSeconds();
        std::vector<rfid::SlotOutcome> out = arbiter.resolve(round++, tags);
        us.add((nowSeconds() - t0) * 1e6);
        if (out.size() != tags.size())
            run.rep.check("rfid.resolve", false, "outcome count");
    }
    run.rep.metric("rfid.resolve_us", us.median(), "us", us.n(),
                   "SlottedArbiter::resolve at " +
                       std::to_string(tags.size()) +
                       " attempts (observed mean), median");
}

/** Ablation rows over a fresh fleet of `cfg` for `epochs` epochs. */
void
fleetAblation(Run &run, const fleet::FleetConfig &cfg,
              const fleet::FirmwareFn &firmware, unsigned epochs,
              unsigned reps)
{
    ablation(run, reps, {Row::FastPath, Row::Reference}, [&](Row row) {
        fleet::FleetConfig c = cfg;
        c.wisp = applyRow(row, cfg.wisp);
        fleet::Fleet f(c, firmware);
        const std::uint64_t before = f.totalInstrs();
        const double t0 = nowSeconds();
        f.runEpochs(epochs);
        RowResult r;
        r.seconds = nowSeconds() - t0;
        r.instrs = f.totalInstrs() - before;
        return r;
    });
}

} // namespace

void
runFleet(Run &run)
{
    Report &rep = run.rep;
    constexpr unsigned tags = 1000;
    /** Epochs the inline copy runs for the digest cross-check; the
     *  traced run goes further so the parallel efficiency is taken
     *  past the start-up epochs (the last `effEpochs` of the prefix). */
    const std::uint64_t prefix = run.opt.trace ? 12 : 4;
    constexpr std::uint64_t effEpochs = 4;
    /** Timed step at which the exact counts are taken. */
    constexpr std::uint64_t window = 60;
    const unsigned threads = workerThreads();
    const fleet::FleetConfig cfg = fleetConfig(run.opt.seed, tags, threads);
    rep.count("fleet.threads", threads);

    // Inline copy first (one fleet in memory at a time): its digests
    // after `prefix` epochs must equal the threaded fleet's.
    std::uint32_t inlineDigest = 0;
    Samples inlineMs;
    {
        fleet::FleetConfig c = cfg;
        c.threads = 0;
        Spans::Scope s(run.spans, "inline", 5);
        fleet::Fleet f(c);
        for (std::uint64_t e = 0; e < prefix; ++e) {
            Spans::Scope es(run.spans, "inline.epoch", 5);
            const double t0 = nowSeconds();
            f.runEpochs(1);
            if (e + effEpochs >= prefix)
                inlineMs.add((nowSeconds() - t0) * 1e3);
        }
        inlineDigest = fleetDigest(f);
    }

    // The fleet the loop runs; set-up copies made during the loop give
    // setup_s. (No digest check on the copies: a world that has not
    // drawn a random number yet digests its RNG's uninitialized output
    // buffer, so fresh fleets do not digest alike.)
    std::unique_ptr<fleet::Fleet> f;
    {
        Spans::Scope s(run.spans, "setup", 100);
        f = std::make_unique<fleet::Fleet>(cfg);
    }
    int copies = 0;
    const auto setupCopy = [&] {
        Spans::Scope s(run.spans, "setup", 101 + copies++);
        const double t0 = nowSeconds();
        fleet::Fleet copy(cfg);
        return nowSeconds() - t0;
    };

    std::uint32_t prefixDigest = 0;
    Samples imbalances;
    double threadedPrefixMs = 0.0;
    Counts counts;
    LoopResult loop = timedLoop(
        run, "epoch", run.opt.seconds,
        std::max<std::uint64_t>(window, Samples::needed(0.9)),
        [&](std::uint64_t i) {
            const double t0 = nowSeconds();
            f->runEpochs(1);
            if (i < prefix && i + effEpochs >= prefix)
                threadedPrefixMs += (nowSeconds() - t0) * 1e3;
            if (run.opt.trace)
                imbalances.add(imbalance(*f));
            if (i + 1 == prefix)
                prefixDigest = fleetDigest(*f);
            if (i + 1 == window) {
                counts = fleetCounts(*f);
                fleetLayerMetrics(run, *f, window, imbalances);
            }
        },
        [&] {
            return Progress{f->totalInstrs(),
                            tags * sim::millisFromTicks(f->now())};
        },
        setupCopy);
    const double setupS =
        reportLoop(run, loop, "Fleet::runEpochs(1) epochs of 1000 worlds",
                   "assemble + build and boot 1000 worlds");
    rep.metric("fleet.build_ms_per_world", setupS * 1e3 / tags, "ms",
               loop.setupS.n(), "setup_s over 1000 worlds");
    rep.check("fleet.inline_digest", inlineDigest == prefixDigest,
              "per-world digests after " + std::to_string(prefix) +
                  " epochs, inline vs " + std::to_string(threads) +
                  " threads");
    counts.record(rep);
    counts.layerMetrics(rep);
    // The inline copy ran exactly the same epochs' work.
    rep.metric("fleet.parallel_efficiency",
               inlineMs.sum() / (threads * threadedPrefixMs), "ratio",
               effEpochs,
               "inline over " + std::to_string(threads) +
                   " x threaded time of epochs " +
                   std::to_string(prefix - effEpochs + 1) + "-" +
                   std::to_string(prefix));

    if (run.opt.trace) {
        fleetSnapshotProbe(run, *f);
        resolveProbe(run, *f, f->epochsRun());
        fleetAblation(run, cfg, {}, 4, 2);
        layerProbes(run, energy::RfHarvester(30.0, 1.5), f->world(0).wisp(),
                    {fleet::Fleet::defaultFirmware().listing});
    }
}

namespace {

constexpr unsigned serverTags = 16;
/** World of the `rw` session (default firmware, so a code rewrite
 *  lands on live predecoded code). */
constexpr std::size_t rwWorld = 2;
/** FRAM word the `rw` session writes (unused by both firmwares). */
constexpr const char *rwDataAddr = "0x7000";

/** Every tag at the paper's 1 m: with only 16 tags, drawn distances
 *  would make the seed decide how much power (and work) each default-
 *  firmware world gets; the seed still picks programs and noise. */
fleet::FleetConfig
serverFleetConfig(std::uint64_t seed)
{
    fleet::FleetConfig cfg = fleetConfig(seed, serverTags, 0);
    cfg.env.minDistanceM = 1.0;
    cfg.env.maxDistanceM = 1.0;
    return cfg;
}

/** Odd worlds run a generated program, even ones the default firmware. */
bool
runsGeneratedProgram(std::size_t world)
{
    return world % 2 == 1;
}

fleet::FirmwareFn
serverFirmware(std::uint64_t seed)
{
    return [seed](std::uint32_t i) {
        fleet::WorldFirmware fw;
        if (!runsGeneratedProgram(i)) {
            fw = fleet::Fleet::defaultFirmware();
        } else {
            fuzz::GeneratorOptions small;
            small.minElements = 3;
            small.maxElements = 10;
            fuzz::CaseSpec spec = fuzz::generateCase(seed * 7919 + i, small);
            fw.schedule = spec.schedule;
            fw.listing = fuzz::renderProgram(spec);
            fw.checkpointing = spec.checkpointing;
        }
        fw.initialVolts = 2.6;
        return fw;
    };
}

/** One closed-loop client: the next request goes out only after the
 *  previous reply arrived. */
struct Client
{
    std::unique_ptr<edbdbg::RpcClient> rpc;
    std::size_t world = 0;
    bool rw = false;
    unsigned index = 0;
    /** Position in the method cycle. */
    std::uint64_t cursor = 0;
    std::uint64_t pending = 0; ///< Outstanding request id (0 = none).
    std::string method;
    double sentAt = 0.0;
    std::uint64_t sentEpoch = 0;
    std::uint64_t bk = 0;
    std::string codeHex;
    std::string dataHex;
    /** r2 from the last `regs` reply (the firmware's loop counter). */
    std::uint64_t r2 = 0;
    /** Static-analysis verdict computed directly for this world. */
    std::string verdict;
};

/** The system under test: fleet, server and connected clients. */
struct ServerRig
{
    std::unique_ptr<fleet::Fleet> fleet;
    std::unique_ptr<edbdbg::DebugServer> server;
    std::vector<Client> clients;
    std::string workAddr;
};

std::string
hexAddr(std::uint32_t a)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%x", a);
    return buf;
}

/** The next request of a client's cycle (method, body). */
std::pair<std::string, std::string>
nextRequest(Client &c, const ServerRig &rig)
{
    const std::uint64_t k = c.cursor;
    if (c.rw) {
        switch (k % 6) {
          case 0: return {"regs", "\"m\":\"regs\""};
          case 1:
            return {"read", "\"m\":\"read\",\"addr\":\"" + rig.workAddr +
                                "\",\"len\":4"};
          case 2:
            // Byte-identical rewrite of the code word just read.
            return {"write", "\"m\":\"write\",\"addr\":\"" + rig.workAddr +
                                 "\",\"d\":\"" + c.codeHex + "\""};
          case 3: {
            char d[16];
            std::snprintf(d, sizeof(d), "%08x",
                          static_cast<unsigned>(k * 2654435761u));
            c.dataHex = d;
            return {"write", std::string("\"m\":\"write\",\"addr\":\"") +
                                 rwDataAddr + "\",\"d\":\"" + d + "\""};
          }
          case 4:
            return {"read", std::string("\"m\":\"read\",\"addr\":\"") +
                                rwDataAddr + "\",\"len\":4"};
          default: return {"vcap", "\"m\":\"vcap\""};
        }
    }
    // On generated programs two replies can be lost (README, "Known
    // findings"): `regs` can come to a 126-byte payload, a length the
    // frame parser takes for a repeated sync byte, and `analyze` can
    // outgrow the 255-byte frame. Sessions there send `vcap` and
    // `willComplete` (the same analysis, short reply) in their slots.
    const bool generated = runsGeneratedProgram(c.world);
    switch (k % 8) {
      case 0:
        if (generated)
            return {"vcap", "\"m\":\"vcap\""};
        return {"regs", "\"m\":\"regs\""};
      case 1: {
        // Break on a narrow range of loop-counter values ahead of the
        // one just read; the breakpoint stays armed until case 5, long
        // enough for a powered default-firmware world to get there.
        const std::uint64_t x = c.r2 + 100;
        return {"setbreak", "\"m\":\"setbreak\",\"sym\":\"work\",\"cond\":"
                            "\"r2>=" + std::to_string(x) + "&&r2<" +
                                std::to_string(x + 3) + "\""};
      }
      case 2: return {"read", "\"m\":\"read\",\"addr\":\"0x6000\",\"len\":16"};
      case 3: return {"vcap", "\"m\":\"vcap\""};
      case 4:
        return {"symbols", "\"m\":\"symbols\",\"off\":" +
                               std::to_string((k / 8) % 2 * 4)};
      case 5:
        return {"clearbreak",
                "\"m\":\"clearbreak\",\"bk\":" + std::to_string(c.bk)};
      case 6:
        if (generated)
            return {"willComplete", "\"m\":\"willComplete\""};
        return {"analyze", "\"m\":\"analyze\""};
      default: return {"willComplete", "\"m\":\"willComplete\""};
    }
}

/** Build fleet, server and clients; attach and arm one breakpoint per
 *  read-only session. `attached` says whether every reply was ok. */
std::unique_ptr<ServerRig>
setUpServer(Run &run, int run_id, bool &attached)
{
    Spans::Scope all(run.spans, "setup", run_id);
    auto rig = std::make_unique<ServerRig>();
    {
        Spans::Scope s(run.spans, "setup.fleet", run_id);
        rig->fleet = std::make_unique<fleet::Fleet>(
            serverFleetConfig(run.opt.seed), serverFirmware(run.opt.seed));
    }
    Spans::Scope s(run.spans, "setup.server", run_id);
    // A budget far above the load: evaluations are charged (and
    // counted) every poll, but no session is ever shed for them.
    edbdbg::ServerConfig scfg;
    scfg.evalBudgetPerPoll = 1'000'000;
    rig->server = std::make_unique<edbdbg::DebugServer>(*rig->fleet, scfg);
    const isa::Program &fw = rig->fleet->worldProgram(0);
    rig->server->setSymbols(isa::SymbolTable::fromProgram(fw));
    rig->workAddr = hexAddr(fw.symbol("work"));
    const std::size_t worlds[] = {0, 1, rwWorld, 3};
    // Staggered cycle starts, so the analyzer calls of the three
    // read-only sessions land in different epochs (a start inside
    // setbreak..clearbreak would clear a breakpoint never set).
    const std::uint64_t starts[] = {0, 6, 0, 7};
    for (unsigned i = 0; i < 4; ++i) {
        Client c;
        c.index = i;
        c.cursor = starts[i];
        c.world = worlds[i];
        c.rw = c.world == rwWorld;
        c.rpc = std::make_unique<edbdbg::RpcClient>(
            *rig->server, "client" + std::to_string(i));
        const fleet::World &w = rig->fleet->world(c.world);
        c.verdict = analysis::verdictName(
            analysis::analyze(rig->fleet->worldProgram(c.world),
                              analysis::CostModel::fromWisp(w.wisp()))
                .verdict);
        rig->clients.push_back(std::move(c));
    }
    attached = true;
    for (Client &c : rig->clients) {
        std::uint64_t id = c.rpc->request(
            "\"m\":\"attach\",\"world\":" + std::to_string(c.world) +
            (c.rw ? ",\"mode\":\"rw\"" : ""));
        auto r = c.rpc->await(id, 10);
        attached = attached && r && r->get("ok") &&
                   r->get("ok")->boolean(false);
        if (!c.rw) {
            // Fires on every cold boot (generated programs without
            // checkpointing restart from main).
            id = c.rpc->request("\"m\":\"setbreak\",\"sym\":\"main\"");
            r = c.rpc->await(id, 10);
            attached = attached && r && r->get("ok") &&
                       r->get("ok")->boolean(false);
        }
    }
    return rig;
}

} // namespace

void
runDebugServer(Run &run)
{
    Report &rep = run.rep;
    /** Timed step at which exact counts and twin digests are taken. */
    constexpr std::uint64_t window = 800;

    // The rig the loop runs. Set-up copies made during the loop give
    // setup_s, and every copy must reach the same fleet state.
    bool attached = false;
    std::unique_ptr<ServerRig> rig = setUpServer(run, 100, attached);
    const std::uint32_t firstDigest = fleetDigest(*rig->fleet);
    bool repeat = true;
    int copies = 0;
    const auto setupCopy = [&] {
        const double t0 = nowSeconds();
        bool ok = false;
        std::unique_ptr<ServerRig> copy =
            setUpServer(run, 101 + copies++, ok);
        const double s = nowSeconds() - t0;
        attached = attached && ok;
        repeat = repeat && fleetDigest(*copy->fleet) == firstDigest;
        copy.reset();
        // Requests in flight wait out the set-up: keep it out of
        // their latency.
        const double paused = nowSeconds() - t0;
        for (Client &c : rig->clients)
            c.sentAt += paused;
        return s;
    };

    fleet::Fleet &f = *rig->fleet;
    edbdbg::DebugServer &server = *rig->server;
    Samples rpcMs, rpcEpochs, windowStepMs, imbalances;
    std::map<std::string, Samples> methodMs;
    std::uint64_t rpcs = 0, rpcFailed = 0;
    std::string firstError;
    std::vector<fleet::WorldDigest> windowDigests;
    std::uint64_t windowEpochs = 0;
    Counts counts;
    edbdbg::DebugServer::Stats windowStats;

    auto fail = [&](const Client &c, const std::string &why) {
        ++rpcFailed;
        if (firstError.empty())
            firstError = "client" + std::to_string(c.index) + " " +
                         c.method + ": " + why;
    };
    auto onReply = [&](Client &c, const edbdbg::JsonValue &r,
                       bool in_window) {
        const double ms = (nowSeconds() - c.sentAt) * 1e3;
        rpcMs.add(ms);
        methodMs[c.method].add(ms);
        if (in_window)
            rpcEpochs.add(static_cast<double>(f.epochsRun() - c.sentEpoch));
        ++rpcs;
        const bool ok = r.get("ok") && r.get("ok")->boolean(false);
        if (!ok) {
            fail(c, "request " + std::to_string(c.pending) + ": " +
                        r.getStr("err").value_or("not ok"));
        } else if (c.method == "regs") {
            // "r" lists r0..r15 in hex, comma separated.
            const std::string regs = r.getStr("r").value_or("");
            const std::size_t a = regs.find(',', regs.find(',') + 1);
            c.r2 = a == std::string::npos
                       ? 0
                       : std::strtoull(regs.c_str() + a + 1, nullptr, 16);
        } else if (c.method == "setbreak") {
            c.bk = r.getUint("bk").value_or(0);
        } else if (c.method == "read" && c.rw && c.cursor % 6 == 1) {
            c.codeHex = r.getStr("d").value_or("");
        } else if (c.method == "read" && c.rw &&
                   r.getStr("d").value_or("") != c.dataHex) {
            fail(c, "read-back differs from the written data");
        } else if ((c.method == "analyze" || c.method == "willComplete") &&
                   r.getStr("verdict").value_or("") != c.verdict) {
            fail(c, "verdict differs from analysis::analyze");
        }
        c.pending = 0;
        ++c.cursor;
    };

    LoopResult loop = timedLoop(
        run, "epoch", run.opt.seconds,
        std::max<std::uint64_t>(window, Samples::needed(0.99) / 4 + 1),
        [&](std::uint64_t i) {
            const double t0 = nowSeconds();
            for (Client &c : rig->clients) {
                if (c.pending)
                    continue;
                auto [method, body] = nextRequest(c, *rig);
                c.method = method;
                c.sentAt = nowSeconds();
                c.sentEpoch = f.epochsRun();
                c.pending = c.rpc->request(body);
                c.rpc->pump();
            }
            {
                Spans::Scope s(run.spans, "server.runEpoch", 0);
                server.runEpoch();
            }
            for (Client &c : rig->clients) {
                c.rpc->pump();
                for (const edbdbg::JsonValue &r : c.rpc->takeResponses()) {
                    // One request is outstanding per client, so an
                    // id-less error (the server drops the id when it
                    // cannot frame a reply) answers it.
                    const std::uint64_t id = r.getUint("id").value_or(0);
                    if (id != c.pending && id != 0) {
                        fail(c, "reply id " + std::to_string(id) +
                                    " while waiting for " +
                                    std::to_string(c.pending) + " (" +
                                    r.getStr("err").value_or("no error") + ")");
                        continue;
                    }
                    const double sent = c.sentAt;
                    onReply(c, r, i < window);
                    run.spans.add("rpc." + c.method, sent, nowSeconds(), -1,
                                  static_cast<int>(10 + c.index));
                }
                c.rpc->takeEvents(); // hits are counted server-side
            }
            if (i < window)
                windowStepMs.add((nowSeconds() - t0) * 1e3);
            if (run.opt.trace)
                imbalances.add(imbalance(f));
            if (i + 1 == window) {
                windowDigests = f.digests();
                windowEpochs = f.epochsRun();
                counts = fleetCounts(f);
                windowStats = server.stats();
                fleetLayerMetrics(run, f, f.epochsRun(), imbalances);
            }
        },
        [&] {
            return Progress{f.totalInstrs(),
                            serverTags * sim::millisFromTicks(f.now())};
        },
        setupCopy);
    const double setupS = reportLoop(
        run, loop, "DebugServer::runEpoch steps with 4 closed-loop clients",
        "assemble + build 16 worlds + server + 4 attached clients");
    rep.check("setup.repeat", repeat,
              "fleet digest after attach identical across " +
                  std::to_string(copies + 1) + " set-ups");
    rep.check("server.attach", attached,
              "attach + setbreak replies ok on every set-up");
    rep.metric("fleet.build_ms_per_world", setupS * 1e3 / serverTags, "ms",
               loop.setupS.n(), "setup_s over 16 worlds");
    rep.addAttempted(rpcs);
    rep.addFailed(rpcFailed);
    rep.check("rpc.replies_ok", rpcFailed == 0,
              std::to_string(rpcFailed) + " of " + std::to_string(rpcs) +
                  " failed" + (firstError.empty() ? "" : "; " + firstError));
    rep.percentile("rpc_ms_p50", rpcMs, 0.5, "ms");
    rep.percentile("rpc_ms_p99", rpcMs, 0.99, "ms");
    rep.metric("rpc_per_s", static_cast<double>(rpcs) / loop.seconds, "1/s",
               rpcs, "replies over the timed loop, 4 closed-loop clients");
    for (const auto &[method, samples] : methodMs)
        rep.percentile("edb.rpc." + method + "_ms_p50", samples, 0.5, "ms");
    if (auto p = rpcEpochs.percentile(0.99))
        rep.metric("edb.rpc_epochs_p99", *p, "epochs", rpcEpochs.n(),
                   "fleet epochs from request to reply (fixed window)");
    rep.count("edb.rpc.window_replies", rpcEpochs.n());

    // Server counters over the fixed window (exact for a seed).
    const std::uint64_t polls = std::max<std::uint64_t>(1, windowStats.polls);
    rep.count("edb.server.commands_served", windowStats.commandsServed);
    rep.count("edb.server.deadlined", windowStats.commandsDeadlined);
    rep.count("edb.server.backpressured", windowStats.commandsBackpressured);
    rep.count("edb.server.hits_delivered", windowStats.hitsDelivered);
    rep.count("edb.server.hits_dropped", windowStats.hitsDropped);
    rep.count("edb.server.evals_charged", windowStats.evalsCharged);
    const std::string win = "fixed window of " + std::to_string(polls) +
                            " polls";
    rep.metric("edb.server.commands_served",
               static_cast<double>(windowStats.commandsServed), "count", 0,
               win);
    rep.metric("edb.server.deadlined",
               static_cast<double>(windowStats.commandsDeadlined), "count",
               0, win);
    rep.metric("edb.server.backpressured",
               static_cast<double>(windowStats.commandsBackpressured),
               "count", 0, win);
    const std::uint64_t fired =
        windowStats.hitsDelivered + windowStats.hitsDropped;
    rep.metric("edb.server.hit_delivery_ratio",
               fired ? static_cast<double>(windowStats.hitsDelivered) / fired
                     : 1.0,
               "ratio", 0,
               "delivered over " + std::to_string(fired) +
                   " fired breakpoint hits");
    rep.metric("edb.server.evals_per_epoch",
               static_cast<double>(windowStats.evalsCharged) / polls,
               "1/epoch", 0, win);
    counts.record(rep);
    counts.layerMetrics(rep);

    // Wind-down: every session detaches cleanly and nothing is left
    // stuck, shed or aborted.
    bool detached = true;
    for (Client &c : rig->clients) {
        if (c.pending)
            c.rpc->await(c.pending, 20);
        const std::uint64_t id = c.rpc->request("\"m\":\"detach\"");
        auto r = c.rpc->await(id, 20);
        detached = detached && r && r->get("ok") &&
                   r->get("ok")->boolean(false);
    }
    server.poll();
    const edbdbg::DebugServer::Stats &st = server.stats();
    rep.check("server.detach", detached, "every session detached cleanly");
    rep.check("server.stuck_sessions", server.stuckSessions() == 0,
              std::to_string(server.stuckSessions()) + " stuck");
    rep.check("server.interference", st.interferenceViolations == 0,
              std::to_string(st.interferenceViolations) + " violations");
    rep.check("server.shed_or_aborted",
              st.sessionsShed + st.sessionsAborted == 0 &&
                  st.oversizeReplies == 0,
              std::to_string(st.sessionsShed) + " shed, " +
                  std::to_string(st.sessionsAborted) + " aborted, " +
                  std::to_string(st.oversizeReplies) +
                  " replies too large for a frame");

    // Client-free twin over the same epochs: every world without an
    // rw session must match bit for bit.
    {
        Spans::Scope s(run.spans, "twin", 6);
        fleet::Fleet twin(serverFleetConfig(run.opt.seed),
                          serverFirmware(run.opt.seed));
        Samples twinMs;
        for (std::uint64_t e = 0; e < windowEpochs; ++e) {
            const double t0 = nowSeconds();
            twin.runEpochs(1);
            twinMs.add((nowSeconds() - t0) * 1e3);
        }
        std::uint64_t mismatches = 0;
        const std::vector<fleet::WorldDigest> bare = twin.digests();
        for (std::size_t w = 0; w < bare.size(); ++w)
            if (w != rwWorld && !(bare[w] == windowDigests[w]))
                ++mismatches;
        rep.check("server.twin_digests", mismatches == 0,
                  std::to_string(mismatches) + " of " +
                      std::to_string(bare.size() - 1) +
                      " worlds differ from the client-free twin after " +
                      std::to_string(windowEpochs) + " epochs");
        rep.metric("edb.server.overhead_ms_per_epoch",
                   windowStepMs.mean() - twinMs.mean(), "ms",
                   windowStepMs.n(),
                   "mean closed-loop step minus mean client-free "
                   "runEpochs(1), first " +
                       std::to_string(windowStepMs.n()) + " steps");
    }

    // Static analysis over the workload's program set.
    std::vector<const isa::Program *> programs;
    std::vector<std::string> listings;
    const fleet::FirmwareFn firmware = serverFirmware(run.opt.seed);
    for (std::size_t i = 0; i < f.size(); ++i) {
        const isa::Program *p = &f.worldProgram(i);
        if (std::find(programs.begin(), programs.end(), p) != programs.end())
            continue;
        programs.push_back(p);
        listings.push_back(firmware(static_cast<std::uint32_t>(i)).listing);
    }
    Samples analyzeMs;
    const analysis::CostModel model =
        analysis::CostModel::fromWisp(f.world(0).wisp());
    for (const isa::Program *p : programs)
        for (int r = 0; r < 5; ++r) {
            Spans::Scope s(run.spans, "analyze", 7);
            const double t0 = nowSeconds();
            analysis::analyze(*p, model);
            analyzeMs.add((nowSeconds() - t0) * 1e3);
        }
    rep.addAttempted(analyzeMs.n());
    rep.percentile("analyze_ms_p50", analyzeMs, 0.5, "ms");

    if (run.opt.trace) {
        fleetSnapshotProbe(run, f);
        resolveProbe(run, f, f.epochsRun());
        fleetAblation(run, serverFleetConfig(run.opt.seed),
                      serverFirmware(run.opt.seed), 40, 5);
        layerProbes(run, energy::RfHarvester(30.0, 1.5), f.world(0).wisp(),
                    listings);
    }
}

} // namespace edb::perfbench
