#include "mcu/i2c.hh"

#include "mcu/mmio_map.hh"
#include "sim/snapshot.hh"

namespace edb::mcu {

I2cController::I2cController(sim::Simulator &simulator,
                             std::string component_name,
                             sim::TimeCursor &time_cursor,
                             energy::PowerSystem &power_sys,
                             I2cConfig config)
    : sim::Component(simulator, std::move(component_name)),
      cursor(time_cursor),
      power(power_sys),
      cfg(config)
{
    busLoad = power.addLoad(name() + ".bus", cfg.busActiveAmps, false);
}

sim::Tick
I2cController::transactionTime() const
{
    // 9 clocks per wire byte (8 data + ack).
    double seconds = cfg.bytesPerTransaction * 9.0 / cfg.clockHz;
    return sim::ticksFromSeconds(seconds);
}

void
I2cController::installMmio(mem::MmioRegion &mmio)
{
    mmio.addRegister(
        mmio::i2cAddr, name() + ".addr", nullptr,
        [this](std::uint32_t v) {
            curAddr = static_cast<std::uint8_t>(v & 0x7F);
        });
    mmio.addRegister(
        mmio::i2cReg, name() + ".reg", nullptr,
        [this](std::uint32_t v) {
            curReg = static_cast<std::uint8_t>(v);
        });
    mmio.addRegister(
        mmio::i2cData, name() + ".data",
        [this] { return static_cast<std::uint32_t>(curData); },
        [this](std::uint32_t v) {
            curData = static_cast<std::uint8_t>(v);
        });
    mmio.addRegister(
        mmio::i2cCtrl, name() + ".ctrl", nullptr,
        [this](std::uint32_t v) {
            if (v == 1)
                start(true);
            else if (v == 2)
                start(false);
        });
    mmio.addRegister(
        mmio::i2cStatus, name() + ".status",
        [this] {
            std::uint32_t s = 0;
            if (inFlight)
                s |= 1u;
            if (done)
                s |= 2u;
            return s;
        },
        nullptr);
}

void
I2cController::attach(I2cDevice *device)
{
    devices.push_back(device);
}

void
I2cController::addSniffer(Sniffer sniffer)
{
    sniffers.push_back(std::move(sniffer));
}

I2cDevice *
I2cController::findDevice(std::uint8_t addr) const
{
    for (auto *device : devices) {
        if (device->address() == addr)
            return device;
    }
    return nullptr;
}

void
I2cController::start(bool is_read)
{
    if (inFlight)
        return;
    inFlight = true;
    done = false;
    curIsRead = is_read;
    power.setLoadEnabled(busLoad, true);
    busDueAt = cursor.now() + transactionTime();
    busEvent = cursor.scheduleIn(transactionTime(), [this] { finish(); });
}

void
I2cController::finish()
{
    busEvent = sim::invalidEventId;
    if (!inFlight)
        return;
    inFlight = false;
    done = true;
    power.setLoadEnabled(busLoad, false);
    I2cDevice *device = findDevice(curAddr);
    if (curIsRead) {
        curData = device ? device->readReg(curReg) : 0xFF;
    } else if (device) {
        device->writeReg(curReg, curData);
    }
    sim::Tick when = cursor.now();
    for (const auto &sniffer : sniffers)
        sniffer(curAddr, curReg, curData, curIsRead, when);
}

void
I2cController::powerLost()
{
    if (busEvent != sim::invalidEventId) {
        sim().cancel(busEvent);
        busEvent = sim::invalidEventId;
    }
    inFlight = false;
    done = false;
    power.setLoadEnabled(busLoad, false);
}

template <class Ar>
void
I2cController::fields(Ar &a)
{
    a.section("i2c");
    a.u8(curAddr);
    a.u8(curReg);
    a.u8(curData);
    a.boolean(curIsRead);
    a.boolean(inFlight);
    a.boolean(done);
    a.event(busEvent, busDueAt, [this] { finish(); });
}

void
I2cController::saveState(sim::SnapshotWriter &w) const
{
    const_cast<I2cController *>(this)->fields(w);
}

void
I2cController::restoreState(sim::SnapshotReader &r, sim::EventRearmer &rearmer)
{
    fields(r.rearmingWith(rearmer));
}

} // namespace edb::mcu
