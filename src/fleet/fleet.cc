#include "fleet/fleet.hh"

#include <algorithm>

#include "isa/assembler.hh"
#include "sim/rng.hh"

namespace edb::fleet {

Fleet::Fleet(FleetConfig config, FirmwareFn firmware)
    : cfg(config), pool_(config.threads),
      arbiter_(config.env,
               sim::deriveSeed(config.seed, arbiterStream)),
      sink_(/*keep_last=*/64)
{
    if (!firmware)
        firmware = [](std::uint32_t) { return defaultFirmware(); };
    buildWorlds(firmware);
}

WorldFirmware
Fleet::defaultFirmware()
{
    // The fleet throughput workload: bump a persistent counter,
    // refresh an 8-word FRAM telemetry buffer, checkpoint, repeat.
    // WAR-free by construction (every store goes through a
    // freshly-materialised base register), so the auditor sweep's
    // clean population really is clean.
    WorldFirmware fw;
    fw.listing = ".equ COUNTER, 0x6000\n"
                 ".equ BUF, 0x6100\n"
                 "main:\n"
                 "    la   r1, COUNTER\n"
                 "    ldw  r2, [r1]\n"
                 "work:\n"
                 "    addi r2, r2, 1\n"
                 "    la   r1, COUNTER\n"
                 "    stw  r2, [r1]\n"
                 "    la   r3, BUF\n"
                 "    li   r4, 8\n"
                 "fill:\n"
                 "    stw  r2, [r3 + 0]\n"
                 "    addi r3, r3, 4\n"
                 "    addi r4, r4, -1\n"
                 "    cmpi r4, 0\n"
                 "    bne  fill\n"
                 "    chkpt\n"
                 "    br   work\n";
    fw.checkpointing = true;
    return fw;
}

void
Fleet::buildWorlds(const FirmwareFn &firmware)
{
    // Distances are drawn from a fleet-level stream in index order,
    // so world i's placement is independent of thread count and of
    // every other world's simulation.
    sim::Rng placement(sim::deriveSeed(cfg.seed, distanceStream));
    worlds.reserve(cfg.tags);
    worldCfgs.reserve(cfg.tags);
    worldImage.reserve(cfg.tags);
    homeShard.reserve(cfg.tags);
    for (std::uint32_t i = 0; i < cfg.tags; ++i) {
        WorldFirmware fw = firmware(i);
        auto it = images.find(fw.listing);
        if (it == images.end())
            it = images
                     .emplace(fw.listing, isa::assemble(fw.listing))
                     .first;
        const isa::Program &prog = it->second;

        WorldConfig wc;
        wc.id = i;
        wc.seed = sim::deriveSeed(cfg.seed, worldStream + i);
        wc.txPowerDbm = cfg.env.txPowerDbm;
        wc.distanceM = placement.uniform(cfg.env.minDistanceM,
                                         cfg.env.maxDistanceM);
        wc.collisionBackoff = cfg.env.collisionBackoff;
        wc.wisp = cfg.wisp;
        wc.wisp.mcu.checkpointingEnabled = fw.checkpointing;
        if (fw.capacitanceF > 0.0)
            wc.wisp.power.capacitanceF = fw.capacitanceF;
        if (fw.initialVolts >= 0.0)
            wc.wisp.power.initialVolts = fw.initialVolts;
        wc.withAuditor = cfg.withAuditor || fw.warMutant;
        wc.schedule = fw.schedule;
        if (fw.warMutant)
            wc.warDoneWatch = prog.symbol("war_done");

        auto w = std::make_unique<World>(prog, wc);
        w->simulator().logger().setSink(&sink_);
        w->start();
        worlds.push_back(std::move(w));
        worldCfgs.push_back(std::move(wc));
        worldImage.push_back(&prog);
        homeShard.push_back(i % pool_.shards());
    }
}

void
Fleet::runEpochs(unsigned epochs)
{
    std::vector<WorkStealingPool::Task> tasks(worlds.size());
    for (unsigned e = 0; e < epochs; ++e) {
        const sim::Tick epochEnd = clock + cfg.epochLength;

        // Phase 1 (sequential): stage carrier windows.
        for (auto &w : worlds)
            w->planEpoch(clock, epochEnd, cfg.env.dutyCycle);

        // Phase 2 (parallel): advance every world to the barrier.
        for (std::size_t i = 0; i < worlds.size(); ++i) {
            World *w = worlds[i].get();
            tasks[i] = [w, epochEnd] { w->advanceTo(epochEnd); };
        }
        pool_.runBatch(tasks, homeShard);

        // Phase 3 (sequential, index order): resolve RF contention.
        attemptIds.clear();
        attemptWorlds.clear();
        for (std::size_t i = 0; i < worlds.size(); ++i) {
            if (!worlds[i]->attemptedUplink())
                continue;
            attemptIds.push_back(worlds[i]->config().id);
            attemptWorlds.push_back(i);
        }
        if (!attemptIds.empty()) {
            std::vector<rfid::SlotOutcome> outcomes =
                arbiter_.resolve(epochIndex, attemptIds);
            for (std::size_t k = 0; k < attemptWorlds.size(); ++k) {
                worlds[attemptWorlds[k]]->noteOutcome(outcomes[k]);
                chan.attempts++;
                if (outcomes[k] == rfid::SlotOutcome::Won)
                    chan.replies++;
                else
                    chan.collisions++;
            }
        }

        // Phase 4 (sequential): rebalance shards by migration.
        clock = epochEnd;
        ++epochIndex;
        if (cfg.rebalancePeriod != 0 &&
            epochIndex % cfg.rebalancePeriod == 0)
            rebalance();
    }
}

void
Fleet::rebalance()
{
    if (pool_.shards() < 2)
        return;
    // Shard load = instructions its worlds retired this epoch; move
    // the hottest world off the most-loaded shard. Decisions depend
    // only on deterministic per-world counters, and the migration
    // itself is a bit-identical continuation, so shard-count-specific
    // choices cannot perturb any world's trajectory.
    std::vector<std::uint64_t> load(pool_.shards(), 0);
    for (std::size_t i = 0; i < worlds.size(); ++i)
        load[homeShard[i]] += worlds[i]->instrsThisEpoch();
    const auto hot =
        std::max_element(load.begin(), load.end()) - load.begin();
    const auto cold =
        std::min_element(load.begin(), load.end()) - load.begin();
    if (hot == cold || load[hot] == load[cold])
        return;
    std::size_t pick = worlds.size();
    std::uint64_t best = 0;
    for (std::size_t i = 0; i < worlds.size(); ++i) {
        if (homeShard[i] != static_cast<unsigned>(hot))
            continue;
        if (pick == worlds.size() ||
            worlds[i]->instrsThisEpoch() > best) {
            pick = i;
            best = worlds[i]->instrsThisEpoch();
        }
    }
    if (pick == worlds.size())
        return;
    auto fresh =
        std::make_unique<World>(*worldImage[pick], worldCfgs[pick]);
    fresh->simulator().logger().setSink(&sink_);
    if (!fresh->adoptFrom(*worlds[pick]))
        return; // keep the original; migration is best-effort
    worlds[pick] = std::move(fresh);
    homeShard[pick] = static_cast<unsigned>(cold);
    ++migrations_;
}

std::vector<WorldDigest>
Fleet::digests() const
{
    std::vector<WorldDigest> out;
    out.reserve(worlds.size());
    for (const auto &w : worlds)
        out.push_back(w->digest());
    return out;
}

std::uint64_t
Fleet::totalInstrs() const
{
    std::uint64_t sum = 0;
    for (const auto &w : worlds)
        sum += w->instrCount();
    return sum;
}

} // namespace edb::fleet
