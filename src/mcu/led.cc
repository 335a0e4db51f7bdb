#include "mcu/led.hh"

#include "mcu/mmio_map.hh"
#include "sim/snapshot.hh"

namespace edb::mcu {

Led::Led(sim::Simulator &simulator, std::string component_name,
         energy::PowerSystem &power_sys, double on_amps)
    : sim::Component(simulator, std::move(component_name)),
      power(power_sys)
{
    load = power.addLoad(name(), on_amps, false);
}

void
Led::installMmio(mem::MmioRegion &mmio)
{
    mmio.addRegister(
        mmio::led, name(),
        [this] { return on ? 1u : 0u; },
        [this](std::uint32_t v) { set(v & 1u); });
}

void
Led::set(bool level)
{
    if (level == on)
        return;
    on = level;
    if (on)
        ++blinks;
    power.setLoadEnabled(load, on);
}

void
Led::powerLost()
{
    set(false);
}

template <class Ar>
void
Led::fields(Ar &a)
{
    a.section("led");
    a.boolean(on);
    a.u64(blinks);
}

void
Led::saveState(sim::SnapshotWriter &w) const
{
    const_cast<Led *>(this)->fields(w);
}

void
Led::restoreState(sim::SnapshotReader &r)
{
    fields(r);
}

} // namespace edb::mcu
