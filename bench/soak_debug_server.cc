/**
 * @file
 * Chaos soak for the multi-client debug server (DESIGN.md §13).
 *
 * K well-behaved debugger clients and M adversarial ones (frame
 * corrupters, truncators, a slowloris trickler, a mid-command
 * disconnector, and a raw-wire client that never drains its receive
 * queue) share one DebugServer over a live fleet for `--episodes`
 * epochs. The adversaries exist to prove supervision, not to win:
 * the gates are
 *
 *   - zero stuck sessions after a quiesce (nothing wedged mid-frame
 *     or mid-command with no way to make progress);
 *   - every shed/aborted session left a SessionReport — nothing
 *     disappears silently;
 *   - zero interference violations (each read-only command's
 *     capacitor-voltage delta must be exactly 0.0);
 *   - per-world digests bit-identical to the same fleet run with no
 *     server and no clients at all — the paper's
 *     energy-interference-freedom claim, fleet edition.
 *
 * The client-free reference run executes after the soak so it can
 * match the exact number of epochs the soak consumed (detach
 * handshakes pump extra epochs).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common.hh"
#include "edb/server.hh"
#include "fleet/fleet.hh"
#include "isa/assembler.hh"
#include "isa/listing.hh"

using namespace edb;

namespace {

fleet::FleetConfig
soakConfig(const bench::Cli &cli, unsigned tags, unsigned threads)
{
    fleet::FleetConfig cfg;
    cfg.tags = tags;
    cfg.threads = threads;
    cfg.seed = static_cast<std::uint64_t>(cli.intOption("seed", 42));
    cfg.epochLength = cli.intOption("epoch-us", 5000) * sim::oneUs;
    // Start charged with a dev-board cap so the targets execute (and
    // breakpoints can actually fire) from epoch one.
    cfg.wisp.power.initialVolts = 2.6;
    cfg.wisp.power.capacitanceF = 4700e-9;
    cfg.wisp.mcu.checkpointingEnabled = true;
    cfg.rebalancePeriod =
        static_cast<unsigned>(cli.intOption("rebalance", 4));
    return cfg;
}

/** Supervision tightened so idle aborts and deadlines are reachable
 *  inside a short CI soak (5 ms epochs). */
edbdbg::ServerConfig
serverConfig()
{
    edbdbg::ServerConfig cfg;
    cfg.idleTimeout = 50 * sim::oneMs;
    cfg.maxProbes = 3;
    cfg.commandDeadline = 50 * sim::oneMs;
    return cfg;
}

struct GoodClient
{
    std::unique_ptr<edbdbg::RpcClient> rpc;
    std::uint64_t responses = 0;
    std::uint64_t hits = 0;
    std::uint64_t errors = 0;
};

sim::ClientFaultPlan
chaosPlan(std::uint64_t seed)
{
    sim::ClientFaultPlan p;
    p.seed = seed;
    p.enabled = true;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Cli cli(argc, argv);
    const unsigned tags = bench::tagsOption(cli, 8);
    const unsigned threads = bench::threadsOption(cli);
    const unsigned episodes =
        static_cast<unsigned>(cli.count("episodes", 200));
    const unsigned good =
        static_cast<unsigned>(cli.intOption("good", 3));

    bench::banner("debug-server chaos soak");
    std::printf("tags=%u threads=%u episodes=%u good=%u\n", tags,
                threads, episodes, good);

    // Symbol table from the shared default firmware.
    fleet::WorldFirmware fw = fleet::Fleet::defaultFirmware();
    isa::Program image = isa::assemble(fw.listing);
    isa::SymbolTable syms = isa::SymbolTable::fromProgram(image);
    std::vector<std::string> symNames;
    for (const auto &[name, value] : syms.symbols()) {
        (void)value;
        symNames.push_back(name);
    }

    const fleet::FleetConfig fleetCfg = soakConfig(cli, tags, threads);
    std::uint64_t epochsRun = 0;
    std::vector<fleet::WorldDigest> withClients;

    std::uint64_t stuck = 0, interference = 0, oversize = 0;
    std::uint64_t sheds = 0, aborts = 0, reportedSheds = 0,
                  reportedAborts = 0, reportCount = 0,
                  activeLeft = 0;
    std::uint64_t framesIn = 0, framesOut = 0, malformed = 0,
                  served = 0, deadlined = 0, backpressured = 0,
                  probes = 0, hitsDelivered = 0, hitsDropped = 0,
                  repliesDropped = 0;
    std::uint64_t faultsInjected = 0;
    std::uint64_t goodResponses = 0, goodHits = 0, goodErrors = 0;
    bench::Json reportJson;

    {
        fleet::Fleet fleet(fleetCfg);
        edbdbg::DebugServer server(fleet, serverConfig());
        server.setSymbols(syms);

        // Well-behaved clients: attach read-only, set a conditional
        // virtual breakpoint on a firmware symbol, then poke at the
        // target every few episodes.
        std::vector<GoodClient> goods(good);
        const char *conds[] = {"", "vcap>1.8", "r2>=0&&instrs>100"};
        for (unsigned g = 0; g < good; ++g) {
            goods[g].rpc = std::make_unique<edbdbg::RpcClient>(
                server, "good" + std::to_string(g));
            goods[g].rpc->request("\"m\":\"attach\",\"world\":" +
                                  std::to_string(g % tags));
            if (!symNames.empty()) {
                const std::string &sym =
                    symNames[g % symNames.size()];
                goods[g].rpc->request(
                    "\"m\":\"setbreak\",\"sym\":\"" + sym +
                    "\",\"cond\":\"" +
                    conds[g % (sizeof(conds) / sizeof(conds[0]))] +
                    "\"");
            }
        }

        // Adversaries. Each gets a distinct damage profile; the
        // slowloris client trickles 2 bytes per poll (below the
        // server's inter-byte resync timeout per epoch), and the
        // flake disconnects mid-command after a few frames.
        sim::ClientFaultPlan corrupt = chaosPlan(101);
        corrupt.corruptProb = 0.5;
        corrupt.garbageProb = 0.3;
        corrupt.dupProb = 0.3;
        corrupt.replayProb = 0.2;
        sim::ClientFaultPlan trunc = chaosPlan(202);
        trunc.truncateProb = 0.6;
        trunc.dropProb = 0.3;
        sim::ClientFaultPlan slow = chaosPlan(303);
        slow.slowlorisBytesPerPoll = 2;
        sim::ClientFaultPlan flake = chaosPlan(404);
        flake.disconnectAfterFrames = 5;

        std::vector<std::unique_ptr<edbdbg::RpcClient>> bads;
        bads.push_back(std::make_unique<edbdbg::RpcClient>(
            server, "corrupter", corrupt));
        bads.push_back(std::make_unique<edbdbg::RpcClient>(
            server, "truncator", trunc));
        bads.push_back(std::make_unique<edbdbg::RpcClient>(
            server, "slowloris", slow));
        bads.push_back(std::make_unique<edbdbg::RpcClient>(
            server, "flake", flake));
        for (auto &b : bads)
            b->request("\"m\":\"attach\",\"world\":0");

        // Raw-wire adversary: sends pings but never drains its
        // receive queue, forcing delivery retries + backpressure
        // shedding.
        edbdbg::ClientWire *greedy = server.connect("greedy");
        auto sendRaw = [&](const std::string &json) {
            if (greedy && greedy->connected())
                greedy->toServer(edbdbg::buildJsonFrame(json));
        };
        sendRaw("{\"id\":1,\"m\":\"attach\",\"world\":1}");

        const char *cmds[] = {
            "\"m\":\"ping\"",
            "\"m\":\"regs\"",
            "\"m\":\"vcap\"",
            "\"m\":\"info\"",
            "\"m\":\"read\",\"addr\":\"0x4000\",\"len\":16",
            "\"m\":\"symbols\"",
            "\"m\":\"lookup\",\"addr\":\"0x4000\"",
        };
        const std::size_t ncmds = sizeof(cmds) / sizeof(cmds[0]);

        for (unsigned e = 0; e < episodes; ++e) {
            for (unsigned g = 0; g < good; ++g) {
                if (e % 5 == g % 5)
                    goods[g].rpc->request(cmds[(e / 5 + g) % ncmds]);
                goods[g].rpc->pump();
                for (auto &r : goods[g].rpc->takeResponses()) {
                    ++goods[g].responses;
                    if (!r.get("ok") ||
                        !r.get("ok")->boolean(false))
                        ++goods[g].errors;
                }
                for (auto &ev : goods[g].rpc->takeEvents()) {
                    if (ev.getStr("ev").value_or("") == "hit")
                        ++goods[g].hits;
                }
            }
            for (std::size_t b = 0; b < bads.size(); ++b) {
                if (e % 2 == b % 2)
                    bads[b]->request(cmds[(e + b) % ncmds]);
                bads[b]->pump();
                bads[b]->takeResponses();
                bads[b]->takeEvents();
            }
            if (e % 2 == 0) {
                for (int k = 0; k < 4; ++k)
                    sendRaw("{\"id\":" + std::to_string(10 + e) +
                            ",\"m\":\"ping\"}");
            }
            server.runEpoch();
        }

        // Wind-down: adversaries vanish (their half-frames must not
        // wedge anything), good clients detach cleanly.
        for (auto &b : bads) {
            faultsInjected += b->faults().stats().corrupted +
                              b->faults().stats().truncated +
                              b->faults().stats().duplicated +
                              b->faults().stats().replayed +
                              b->faults().stats().dropped +
                              b->faults().stats().garbageBytes +
                              b->faults().stats().disconnects;
            b->disconnect();
        }
        if (greedy)
            greedy->disconnect();
        server.runEpochs(2);
        for (unsigned g = 0; g < good; ++g) {
            std::uint64_t id =
                goods[g].rpc->request("\"m\":\"detach\"");
            if (auto r = goods[g].rpc->await(id, 20)) {
                ++goods[g].responses;
                if (!r->get("ok") || !r->get("ok")->boolean(false))
                    ++goods[g].errors;
            }
        }
        server.poll();

        for (const GoodClient &g : goods) {
            goodResponses += g.responses;
            goodHits += g.hits;
            goodErrors += g.errors;
        }

        const edbdbg::DebugServer::Stats &st = server.stats();
        stuck = server.stuckSessions();
        activeLeft = server.activeSessions();
        interference = st.interferenceViolations;
        oversize = st.oversizeReplies;
        sheds = st.sessionsShed;
        aborts = st.sessionsAborted;
        framesIn = st.framesIn;
        framesOut = st.framesOut;
        malformed = st.malformedJson;
        served = st.commandsServed;
        deadlined = st.commandsDeadlined;
        backpressured = st.commandsBackpressured;
        probes = st.probesSent;
        hitsDelivered = st.hitsDelivered;
        hitsDropped = st.hitsDropped;
        repliesDropped = st.repliesDropped;
        reportCount = server.reports().size();
        for (const edbdbg::SessionReport &r : server.reports()) {
            if (r.outcome == edbdbg::SessionOutcome::Shed)
                ++reportedSheds;
            if (r.outcome == edbdbg::SessionOutcome::Aborted)
                ++reportedAborts;
            std::printf("session %u (%s): %s/%s world=%zu "
                        "served=%llu degraded=%d\n",
                        r.sessionId, r.client.c_str(),
                        edbdbg::sessionOutcomeName(r.outcome),
                        r.reason.c_str(), r.world,
                        static_cast<unsigned long long>(
                            r.commandsServed),
                        r.degraded ? 1 : 0);
        }

        epochsRun = fleet.epochsRun();
        withClients = fleet.digests();
    }

    // Client-free reference: the same fleet, same seed, same epoch
    // count, with no server constructed at all. Any digest delta is
    // energy interference by definition.
    bench::note("client-free reference run (" +
                std::to_string(epochsRun) + " epochs)");
    std::uint64_t digestMismatches = 0;
    {
        fleet::Fleet reference(fleetCfg);
        reference.runEpochs(static_cast<unsigned>(epochsRun));
        std::vector<fleet::WorldDigest> bare = reference.digests();
        for (std::size_t w = 0;
             w < bare.size() && w < withClients.size(); ++w) {
            if (!(bare[w] == withClients[w])) {
                ++digestMismatches;
                if (digestMismatches <= 4)
                    std::printf("DIGEST MISMATCH world %zu: "
                                "with-clients crc %08x vs bare "
                                "%08x\n",
                                w, withClients[w].crc, bare[w].crc);
            }
        }
    }

    const bool reportsOk =
        reportedSheds == sheds && reportedAborts == aborts;
    const bool chaosLive = faultsInjected > 0 && malformed + framesIn > 0;
    const bool ok = stuck == 0 && digestMismatches == 0 &&
                    interference == 0 && oversize == 0 && reportsOk &&
                    chaosLive && goodResponses > 0;

    bench::Json summary;
    bench::runConfigFields(summary, cli, 8);
    summary.field("episodes", static_cast<std::uint64_t>(episodes))
        .field("epochs_run", epochsRun)
        .field("good_clients", static_cast<std::uint64_t>(good))
        .field("frames_in", framesIn)
        .field("frames_out", framesOut)
        .field("malformed_json", malformed)
        .field("commands_served", served)
        .field("commands_deadlined", deadlined)
        .field("commands_backpressured", backpressured)
        .field("probes_sent", probes)
        .field("hits_delivered", hitsDelivered)
        .field("hits_dropped", hitsDropped)
        .field("replies_dropped", repliesDropped)
        .field("good_responses", goodResponses)
        .field("good_hits", goodHits)
        .field("good_errors", goodErrors)
        .field("faults_injected", faultsInjected)
        .field("sessions_shed", sheds)
        .field("sessions_aborted", aborts)
        .field("reports", reportCount)
        .field("reported_sheds", reportedSheds)
        .field("reported_aborts", reportedAborts)
        .field("active_left", activeLeft)
        .field("stuck_sessions", stuck)
        .field("interference_violations", interference)
        .field("oversize_replies", oversize)
        .field("digest_mismatches", digestMismatches)
        .field("ok", ok);
    summary.print();
    std::printf("\nDEBUG-SERVER SOAK %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
