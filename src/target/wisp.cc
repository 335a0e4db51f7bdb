#include "target/wisp.hh"

#include "rfid/channel.hh"
#include "sim/fault.hh"
#include "sim/snapshot.hh"

namespace edb::target {

namespace {

/** Fold the NV technology table into the MCU config before members
 *  initialize: a nonzero per-tech write latency overrides the
 *  McuConfig default so checkpoint costing and store costing agree
 *  with the technology the FRAM region models. */
WispConfig
withNvTech(WispConfig config)
{
    if (config.nvTech.writeExtraCycles != 0)
        config.mcu.framWriteExtraCycles =
            config.nvTech.writeExtraCycles;
    return config;
}

} // namespace

WispConfig
referenceEngine(WispConfig base)
{
    base.mcu.predecodeCache = false;
    base.mcu.flatDispatch = false;
    base.mcu.batchedDrain = false;
    base.mcu.batchedSlices = false;
    base.mcu.superblocks = false;
    base.power.fastIntegration = false;
    return base;
}

Wisp::Wisp(sim::Simulator &simulator, std::string component_name,
           const energy::Harvester *harvester,
           rfid::RfChannel *channel, WispConfig config)
    : sim::Component(simulator, std::move(component_name)),
      cfg(withNvTech(std::move(config))),
      cursor(simulator),
      power_(simulator, name() + ".power", cfg.power, harvester),
      sram(name() + ".sram", layout::sramBase, layout::sramSize,
           mem::RegionKind::Sram),
      fram(name() + ".fram", layout::framBase, layout::framSize,
           mem::RegionKind::Fram, cfg.nvTech),
      mmio(name() + ".mmio", layout::mmioBase, layout::mmioSize),
      gpio_(simulator, name() + ".gpio", cursor),
      uart_(simulator, name() + ".uart0", cursor, power_, cfg.uart),
      i2c_(simulator, name() + ".i2c", cursor, power_, cfg.i2c),
      adc_(simulator, name() + ".adc", cursor, power_, cfg.adc),
      led_(simulator, name() + ".led", power_, cfg.ledAmps),
      debugPort_(simulator, name() + ".dbg", cursor, power_,
                 cfg.debug),
      accel_(simulator, name() + ".accel", cfg.accel),
      core(simulator, name() + ".mcu", cursor, map, power_, cfg.mcu)
{
    // Address space: NULL page unmapped (wild NULL-derived accesses
    // fault, paper Fig 3), SRAM, FRAM, peripheral page.
    map.addRegion(&sram);
    map.addRegion(&fram);
    map.addRegion(&mmio);

    // Peripheral registers.
    namespace m = mcu::mmio;
    gpio_.installMmio(mmio);
    uart_.installMmio(mmio, m::uart0Tx, m::uart0Status, m::uart0Rx);
    i2c_.installMmio(mmio);
    adc_.installMmio(mmio);
    led_.installMmio(mmio);
    debugPort_.installMmio(mmio);
    core.installMmio(mmio);

    // ADC channel 0 senses the storage capacitor (self-measurement,
    // the energy-costly path the paper contrasts with EDB).
    adc_.addChannel(0, [this] { return power_.voltage(); });

    // Sensor bus.
    i2c_.attach(&accel_);

    // NV backend: every modelled FRAM write draws its programming
    // charge straight from the storage capacitor (only while the rail
    // is up; a dead rail can't program cells). The core gets the
    // region handle for the checkpoint unit's commit-burst latch.
    fram.setEnergySink([this](double coulombs) {
        if (power_.poweredOn())
            power_.drawCharge(coulombs);
    });
    core.setNvRegion(&fram);

    // Optional RFID air interface.
    if (channel) {
        rf_ = std::make_unique<rfid::RfFrontend>(
            simulator, name() + ".rf", cursor, power_, *channel,
            cfg.rf);
        rf_->installMmio(mmio);
        channel->attachTag(rf_.get());
    }

    // A brown-out destroys volatile state: SRAM decays and every
    // peripheral resets (outputs low, FIFOs cleared).
    core.setResetHook([this] {
        sram.powerLoss();
        gpio_.powerLost();
        uart_.powerLost();
        i2c_.powerLost();
        adc_.powerLost();
        led_.powerLost();
        debugPort_.powerLost();
        if (rf_)
            rf_->powerLost();
    });
}

void
Wisp::flash(const isa::Program &program)
{
    core.loadProgram(program);
}

void
Wisp::start()
{
    power_.start();
}

mem::NvAuditor
Wisp::makeAuditor()
{
    mem::NvAuditConfig audit;
    audit.checkpointBase = cfg.mcu.checkpointBase;
    audit.checkpointSpan = 2 * cfg.mcu.checkpointSlotSize;
    return mem::NvAuditor(audit, fram);
}

void
Wisp::attachAuditor(mem::NvAuditor *auditor)
{
    core.setAuditor(auditor);
    map.setWriteHook(auditor ? &mem::NvAuditor::rawWriteHook : nullptr,
                     auditor);
}

void
Wisp::attachFaults(sim::FaultInjector &fault)
{
    fault.armBrownOuts([this] { power_.capacitor().setVoltage(0.5); });
    core.setNvFaults(&fault);
}

template <class Ar>
void
Wisp::fields(Ar &a)
{
    a.section("wisp");
    a.tick(sim::via(sim().now(),
                    [this](sim::Tick t) { sim().restoreClock(t); }));
    a.tick(sim::via(cursor.localTime(),
                    [this](sim::Tick t) { cursor.restoreLocal(t); }));
    a.rng(sim().rng());
    a.part(power_);
    a.part(sram);
    a.part(fram);
    a.part(gpio_);
    a.part(uart_);
    a.part(i2c_);
    a.part(adc_);
    a.part(led_);
    a.part(debugPort_);
    a.part(accel_);
    // A snapshot taken on a device with a different RF build fails.
    a.expect(rf_ != nullptr);
    if (rf_)
        a.part(*rf_);
    a.part(core);
}

void
Wisp::saveState(sim::SnapshotWriter &w) const
{
    const_cast<Wisp *>(this)->fields(w);
}

void
Wisp::restoreState(sim::SnapshotReader &r, sim::EventRearmer &rearmer)
{
    fields(r.rearmingWith(rearmer));
}

} // namespace edb::target
