/**
 * @file
 * The simulated target device: a WISP 5 class energy-harvesting
 * platform (paper Section 5.1).
 *
 * `Wisp` assembles the MCU core, memories, power system, peripherals,
 * RF front end and accelerometer into one device with the WISP 5
 * electrical constants: a 47 uF storage capacitor, 2.4 V turn-on and
 * 1.8 V brown-out comparators, and an MSP430-like core drawing
 * ~0.5 mA at 4 MHz.
 *
 * Memory layout (`target::layout`): the NULL page is intentionally
 * unmapped so wild NULL-derived accesses fault (paper Fig 3's
 * corruption case study); volatile SRAM sits below the stack top,
 * and non-volatile FRAM holds code, application data and the
 * checkpoint slots.
 */

#ifndef EDB_TARGET_WISP_HH
#define EDB_TARGET_WISP_HH

#include <memory>
#include <string>

#include "energy/harvester.hh"
#include "energy/power_system.hh"
#include "isa/program.hh"
#include "mcu/adc.hh"
#include "mcu/debug_port.hh"
#include "mcu/gpio.hh"
#include "mcu/i2c.hh"
#include "mcu/led.hh"
#include "mcu/mcu.hh"
#include "mcu/mmio_map.hh"
#include "mcu/uart.hh"
#include "mem/memory.hh"
#include "mem/nv_audit.hh"
#include "mem/nv_region.hh"
#include "rfid/frontend.hh"
#include "sensors/accelerometer.hh"
#include "sim/simulator.hh"
#include "sim/time_cursor.hh"

namespace edb::rfid {
class RfChannel;
}

namespace edb::sim {
class FaultInjector;
}

namespace edb::target {

/** Fixed address-space layout of the device. */
namespace layout {
/** Volatile SRAM (the NULL page below it is unmapped). */
constexpr mem::Addr sramBase = 0x0400;
constexpr mem::Addr sramSize = 0x3C00;
/** Initial stack pointer: the top of SRAM. */
constexpr mem::Addr stackTop = sramBase + sramSize;
/** Non-volatile FRAM: code, data, checkpoint slots. */
constexpr mem::Addr framBase = 0x4000;
constexpr mem::Addr framSize = 0xB000;
/** Peripheral page. */
constexpr mem::Addr mmioBase = mcu::mmio::base;
constexpr mem::Addr mmioSize = mcu::mmio::size;
} // namespace layout

/** Aggregate configuration of the device (WISP 5 defaults). */
struct WispConfig
{
    energy::PowerSystemConfig power = {};
    mcu::McuConfig mcu = {};
    /** Console UART (the energy-expensive printf path). */
    mcu::UartConfig uart = {};
    mcu::I2cConfig i2c = {};
    mcu::AdcConfig adc = {};
    mcu::DebugPortConfig debug = {};
    rfid::RfFrontendConfig rf = {};
    sensors::AccelConfig accel = {};
    /** LED current while lit (paper Section 2.2: ~5x the MCU). */
    double ledAmps = 4.0e-3;
    /**
     * NV technology of the FRAM region (mem/nv_region.hh). The
     * default is passive — bit-identical to the seed's plain Ram. An
     * active table (framTech()/flashTech()/sttMramTech()) turns on
     * per-write energy drain, wear tracking and, via
     * `writeExtraCycles`, the store latency the MCU charges
     * (overrides `mcu.framWriteExtraCycles` when nonzero).
     */
    mem::NvTechConfig nvTech = {};
};

/**
 * The reference engine: `base` with all six fast-path switches off
 * (predecode cache, flat dispatch, batched drain, batched slices,
 * superblocks and fast integration). Every other engine must
 * reproduce its trajectories bit for bit (DESIGN.md §10).
 */
WispConfig referenceEngine(WispConfig base = {});

/** The assembled target device. */
class Wisp : public sim::Component
{
  public:
    /**
     * @param harvester Ambient energy source (non-owning).
     * @param channel Optional RFID air interface; when present the
     *        tag front end is instantiated and attached.
     */
    Wisp(sim::Simulator &simulator, std::string component_name,
         const energy::Harvester *harvester,
         rfid::RfChannel *channel = nullptr, WispConfig config = {});

    /** Flash a program image (invalidates stale checkpoints). */
    void flash(const isa::Program &program);

    /** Begin the power system's self-ticking; call once. */
    void start();

    /// @name Subsystem access
    /// @{
    mcu::Mcu &mcu() { return core; }
    const mcu::Mcu &mcu() const { return core; }
    energy::PowerSystem &power() { return power_; }
    const energy::PowerSystem &power() const { return power_; }
    mem::MemoryMap &memoryMap() { return map; }
    mem::Ram &sramRegion() { return sram; }
    const mem::Ram &sramRegion() const { return sram; }
    mem::NvRegion &framRegion() { return fram; }
    const mem::NvRegion &framRegion() const { return fram; }
    mcu::Gpio &gpio() { return gpio_; }
    mcu::Uart &uart() { return uart_; }
    mcu::I2cController &i2c() { return i2c_; }
    mcu::Adc &adc() { return adc_; }
    mcu::Led &led() { return led_; }
    mcu::DebugPort &debugPort() { return debugPort_; }
    sensors::Accelerometer &accelerometer() { return accel_; }
    /** RF front end; nullptr when built without an air interface. */
    rfid::RfFrontend *rf() { return rf_.get(); }
    /// @}

    /// @name World attachments
    /// One attach point per observer or fault source (tracers:
    /// `mcu().addTracer`; forced brown-outs: `BrownOutSchedule`).
    /// @{
    /** A fresh, unattached NV auditor over FRAM minus the checkpoint
     *  slots (the recovery protocol, not application data). */
    mem::NvAuditor makeAuditor();
    /** Attach `auditor` (nullptr detaches) to the core's taint
     *  machine and to every routed write of the memory map, so
     *  erasing writes are seen whatever their source. Caller-owned. */
    void attachAuditor(mem::NvAuditor *auditor);
    /** Wire `fault` in: its forced brown-outs yank the capacitor to
     *  0.5 V, and it sees every interruptible-commit word and decides
     *  the fate of a torn one. Caller-owned. */
    void attachFaults(sim::FaultInjector &fault);
    /// @}

    /** Core lifecycle state. */
    mcu::McuState state() const { return core.state(); }

    /** Storage-capacitor voltage (advances the analog model). */
    double voltage() { return power_.voltage(); }

    const WispConfig &config() const { return cfg; }

    /// @name Snapshot support (see sim/snapshot.hh)
    /// Captures the event clock, the shared RNG and every subsystem.
    /// Restore protocol: construct a fresh Simulator (same seed) and
    /// Wisp (same config), `flash` the same program, do NOT `start`,
    /// then `restoreState` + `rearmer.flush()`; the restored run is
    /// bit-identical to the original continuing past the snapshot.
    /// Works in-place too (rewind), since every component cancels its
    /// own pending events before rearming.
    /// @{
    void saveState(sim::SnapshotWriter &w) const;
    void restoreState(sim::SnapshotReader &r,
                      sim::EventRearmer &rearmer);
    /// @}

  private:
    /** Snapshot field list (DESIGN.md section 8.1). */
    template <class Ar> void fields(Ar &a);

    WispConfig cfg;
    sim::TimeCursor cursor;
    energy::PowerSystem power_;
    mem::Ram sram;
    mem::NvRegion fram;
    mem::MmioRegion mmio;
    mem::MemoryMap map;
    mcu::Gpio gpio_;
    mcu::Uart uart_;
    mcu::I2cController i2c_;
    mcu::Adc adc_;
    mcu::Led led_;
    mcu::DebugPort debugPort_;
    sensors::Accelerometer accel_;
    std::unique_ptr<rfid::RfFrontend> rf_;
    mcu::Mcu core;
};

} // namespace edb::target

#endif // EDB_TARGET_WISP_HH
