#include "energy/power_system.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace edb::energy {

PowerSystem::PowerSystem(sim::Simulator &simulator,
                         std::string component_name,
                         PowerSystemConfig config,
                         const Harvester *harvester_model)
    : sim::Component(simulator, std::move(component_name)),
      cfg(config),
      harvester(harvester_model),
      cap(config.capacitanceF, config.initialVolts)
{
    if (cfg.capacitanceF <= 0.0)
        sim::fatal("PowerSystem: capacitance must be > 0");
    if (cfg.brownOutVolts >= cfg.turnOnVolts)
        sim::fatal("PowerSystem: brown-out must be below turn-on");
    if (!harvester)
        sim::fatal("PowerSystem: harvester must not be null");
    powered = cap.voltage() >= cfg.turnOnVolts;
    lastUpdate = simulator.now();
    maxStepSeconds = sim::secondsFromTicks(cfg.maxStep);
    noiseEnabled = cfg.harvestNoiseSigma > 0.0;
    refreshFlatSource();
}

void
PowerSystem::start()
{
    if (started)
        return;
    started = true;
    if (cfg.bootOnStart && powered) {
        // A pre-charged device's comparator is already high at
        // power-up: report the boot the crossing detector can't see.
        ++boots;
        for (const auto &listener : listeners)
            listener(true);
    }
    tick();
}

void
PowerSystem::tick()
{
    advanceTo(now());
    tickDueAt = now() + cfg.idleTickPeriod;
    tickEvent = sim().schedule(tickDueAt, [this] { tick(); });
}

PowerSystem::LoadHandle
PowerSystem::addLoad(std::string load_name, double amps, bool enabled)
{
    advanceTo(now());
    loads.push_back(Load{std::move(load_name), amps, enabled});
    invalidateLoadSum();
    return loads.size() - 1;
}

void
PowerSystem::setLoadCurrent(LoadHandle handle, double amps)
{
    advanceTo(now());
    loads.at(handle).amps = amps;
    invalidateLoadSum();
}

void
PowerSystem::setLoadEnabled(LoadHandle handle, bool enabled)
{
    advanceTo(now());
    loads.at(handle).enabled = enabled;
    invalidateLoadSum();
}

double
PowerSystem::loadCurrent(LoadHandle handle) const
{
    return loads.at(handle).amps;
}

bool
PowerSystem::loadEnabled(LoadHandle handle) const
{
    return loads.at(handle).enabled;
}

PowerSystem::SourceHandle
PowerSystem::addSource(std::string source_name, SourceFn fn,
                       double worst_draw_amps)
{
    advanceTo(now());
    sources.push_back(Source{std::move(source_name), std::move(fn),
                             true, worst_draw_amps});
    ++drawEpoch_;
    return sources.size() - 1;
}

void
PowerSystem::setSourceEnabled(SourceHandle handle, bool enabled)
{
    advanceTo(now());
    sources.at(handle).enabled = enabled;
    ++drawEpoch_;
}

void
PowerSystem::addPowerListener(PowerListener listener)
{
    listeners.push_back(std::move(listener));
}

void
PowerSystem::advanceTo(sim::Tick when)
{
    if (integrating || when <= lastUpdate)
        return;
    integrating = true;
    sim::Tick t = lastUpdate;
    const bool fast = cfg.fastIntegration;
    while (t < when) {
        sim::Tick step = std::min<sim::Tick>(cfg.maxStep, when - t);
        // Full-size sub-steps reuse the hoisted conversion; only the
        // final partial step pays the divide. Identical value either
        // way.
        double step_sec = fast && step == cfg.maxStep
                              ? maxStepSeconds
                              : sim::secondsFromTicks(step);
        integrateStep(step_sec, sim::secondsFromTicks(t));
        t += step;
        lastUpdate = t;
        updateComparator();
    }
    integrating = false;
}

double
PowerSystem::voltage()
{
    advanceTo(now());
    return cap.voltage();
}

double
PowerSystem::regulatedVoltage()
{
    return std::min(voltage(), cfg.regulatorVolts);
}

template <class Ar>
void
PowerSystem::fields(Ar &a)
{
    a.section("power");
    // Raw member writes only: going through setVoltage/setLoad*
    // would advanceTo(now()) and insert integration sub-steps the
    // original run never took, breaking resume equivalence.
    a.f64(sim::via(cap.voltage(), [this](double v) { cap.setVoltage(v); }));
    a.tick(lastUpdate);
    a.boolean(powered);
    a.boolean(started);
    a.f64(chargeIn);
    a.f64(chargeOut);
    a.u64(boots);
    a.u64(brownOuts);
    // Loads and sources are registered at construction, so their
    // counts are the device's: another count fails the restore.
    a.expect(static_cast<std::uint32_t>(loads.size()));
    for (auto &load : loads) {
        a.f64(load.amps);
        a.boolean(load.enabled);
    }
    a.expect(static_cast<std::uint32_t>(sources.size()));
    for (auto &src : sources)
        a.boolean(src.enabled);
    a.event(tickEvent, tickDueAt, [this] { tick(); });
}

void
PowerSystem::saveState(sim::SnapshotWriter &w) const
{
    const_cast<PowerSystem *>(this)->fields(w);
}

void
PowerSystem::restoreState(sim::SnapshotReader &r,
                          sim::EventRearmer &rearmer)
{
    fields(r.rearmingWith(rearmer));
    invalidateLoadSum();
    integrating = false;
}

} // namespace edb::energy
