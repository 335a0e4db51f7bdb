#include "fleet/world.hh"

namespace edb::fleet {

namespace {

/** Fleet worlds always boot on start when pre-charged: a tag given
 *  initial volts above turn-on must execute from tick zero. */
target::WispConfig
bootableWisp(target::WispConfig config)
{
    config.power.bootOnStart = true;
    return config;
}

} // namespace

World::World(const isa::Program &program, const WorldConfig &config)
    : cfg(config), sim(config.seed),
      harvester(config.txPowerDbm, config.distanceM),
      wisp_(std::make_unique<target::Wisp>(sim, "wisp", &harvester,
                                           nullptr,
                                           bootableWisp(config.wisp))),
      brownOuts(*wisp_), gadget(*wisp_, config.warDoneWatch)
{
    wisp_->flash(program);
    if (cfg.withAuditor) {
        aud = std::make_unique<mem::NvAuditor>(wisp_->makeAuditor());
        wisp_->attachAuditor(aud.get());
    }
    for (const fuzz::BrownOut &b : cfg.schedule)
        brownOuts.add(b.at, b.volts);
}

void
World::start()
{
    wisp_->start();
    brownOuts.arm();
}

void
World::planEpoch(sim::Tick epoch_start, sim::Tick epoch_end,
                 double carrier_fraction)
{
    epochStart = epoch_start;
    instrsAtEpochStart = instrCount();
    double frac = carrier_fraction;
    if (backoff) {
        frac *= 1.0 - cfg.collisionBackoff;
        backoff = false;
    }
    if (frac <= 0.0) {
        harvester.setCarrierOn(false);
        return;
    }
    harvester.setCarrierOn(true);
    if (frac < 1.0) {
        sim::Tick span = epoch_end - epoch_start;
        sim::Tick off =
            epoch_start +
            static_cast<sim::Tick>(static_cast<double>(span) * frac);
        if (off < epoch_end)
            sim.schedule(off,
                         [this] { harvester.setCarrierOn(false); });
    }
}

void
World::advanceTo(sim::Tick epoch_end)
{
    sim.runUntil(epoch_end);
}

bool
World::attemptedUplink() const
{
    return instrCount() > instrsAtEpochStart;
}

std::uint64_t
World::instrCount() const
{
    return wisp_->mcu().instrCount();
}

std::uint64_t
World::instrsThisEpoch() const
{
    return instrCount() - instrsAtEpochStart;
}

void
World::noteOutcome(rfid::SlotOutcome outcome)
{
    ++attempts;
    if (outcome == rfid::SlotOutcome::Won) {
        ++replies;
    } else {
        ++collided;
        backoff = true;
    }
}

template <class Ar>
void
World::fields(Ar &a)
{
    a.part(*wisp_);
    if (aud)
        a.part(*aud);
    a.section("fleetworld");
    a.tick(epochStart);
    a.u64(instrsAtEpochStart);
    a.boolean(backoff);
    a.u64(replies);
    a.u64(collided);
    a.u64(attempts);
    a.part(gadget);
}

void
World::saveTo(sim::SnapshotWriter &w) const
{
    const_cast<World *>(this)->fields(w);
}

bool
World::adoptFrom(const World &other)
{
    sim::SnapshotWriter w;
    other.saveTo(w);
    sim::SnapshotReader r;
    if (!r.load(w.finish()))
        return false;
    sim::EventRearmer rearmer(sim);
    fields(r.rearmingWith(rearmer));
    if (!r.ok())
        return false;
    rearmer.flush();
    brownOuts.arm(sim.now());
    return true;
}

WorldDigest
World::digest() const
{
    sim::SnapshotWriter w;
    target::WispDigest::of(*wisp_).write(w);
    if (aud) {
        w.u64(aud->violationCount());
        w.u64(aud->unsealedRestoreCount());
    }
    w.u64(replies);
    w.u64(collided);
    w.u64(attempts);
    w.u64(gadget.losses());
    std::vector<std::uint8_t> image = w.finish();
    WorldDigest d;
    d.crc = sim::crc32(image.data(), image.size());
    d.instrs = wisp_->mcu().instrCount();
    d.reboots = wisp_->mcu().rebootCount();
    return d;
}

} // namespace edb::fleet
