#include "mcu/gpio.hh"

#include "mcu/mmio_map.hh"
#include "sim/snapshot.hh"

namespace edb::mcu {

Gpio::Gpio(sim::Simulator &simulator, std::string component_name,
           sim::TimeCursor &time_cursor)
    : sim::Component(simulator, std::move(component_name)),
      cursor(time_cursor)
{}

void
Gpio::installMmio(mem::MmioRegion &mmio)
{
    mmio.addRegister(
        mmio::gpioOut, name() + ".out",
        [this] { return out; },
        [this](std::uint32_t v) { writeOut(v); });
    mmio.addRegister(
        mmio::gpioIn, name() + ".in", [this] { return in; }, nullptr);
    mmio.addRegister(
        mmio::gpioToggle, name() + ".toggle", nullptr,
        [this](std::uint32_t v) { writeOut(out ^ v); });
}

void
Gpio::writeOut(std::uint32_t value)
{
    std::uint32_t changed = out ^ value;
    out = value;
    if (!changed || listeners.empty())
        return;
    sim::Tick when = cursor.now();
    for (unsigned p = 0; p < 32; ++p) {
        if ((changed >> p) & 1u) {
            bool level = (out >> p) & 1u;
            for (const auto &listener : listeners)
                listener(p, level, when);
        }
    }
}

void
Gpio::setInput(unsigned index, bool level)
{
    if (level)
        in |= 1u << index;
    else
        in &= ~(1u << index);
}

void
Gpio::addListener(Listener listener)
{
    listeners.push_back(std::move(listener));
}

void
Gpio::powerLost()
{
    writeOut(0);
}

template <class Ar>
void
Gpio::fields(Ar &a)
{
    a.section("gpio");
    a.u32(out);
    a.u32(in);
}

void
Gpio::saveState(sim::SnapshotWriter &w) const
{
    const_cast<Gpio *>(this)->fields(w);
}

void
Gpio::restoreState(sim::SnapshotReader &r)
{
    fields(r);
}

} // namespace edb::mcu
