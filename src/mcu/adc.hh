/**
 * @file
 * On-chip ADC of the target MCU.
 *
 * The paper notes (Section 4.1) that "while it is possible for energy
 * harvesting devices to measure their stored energy levels, doing so
 * uses energy, perturbing the energy state being measured". This
 * model makes that cost concrete: a conversion takes real time and
 * draws extra supply current, so self-measurement is visible in the
 * intermittent behaviour.
 */

#ifndef EDB_MCU_ADC_HH
#define EDB_MCU_ADC_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "energy/power_system.hh"
#include "mem/memory.hh"
#include "sim/simulator.hh"
#include "sim/time_cursor.hh"

namespace edb::sim {
class SnapshotWriter;
class SnapshotReader;
class EventRearmer;
} // namespace edb::sim

namespace edb::mcu {

/** Configuration of the target's on-chip ADC. */
struct AdcConfig
{
    unsigned bits = 12;
    double vrefVolts = 3.0;
    /** Conversion time (sample + hold + convert). */
    sim::Tick conversionTime = 20 * sim::oneUs;
    /** Extra supply current during a conversion. */
    double conversionAmps = 0.25e-3;
};

/** Successive-approximation ADC with registered analog channels. */
class Adc : public sim::Component
{
  public:
    /** Analog channel source: returns volts at sample time. */
    using ChannelFn = std::function<double()>;

    Adc(sim::Simulator &simulator, std::string component_name,
        sim::TimeCursor &cursor, energy::PowerSystem &power,
        AdcConfig config = {});

    /** Install CTRL/STATUS/VALUE registers. */
    void installMmio(mem::MmioRegion &mmio);

    /** Register an analog input channel. */
    void addChannel(unsigned channel, ChannelFn source);

    /** Quantize a voltage the way this ADC would. */
    std::uint32_t quantize(double volts) const;

    /** Full-scale code. */
    std::uint32_t fullScale() const { return (1u << cfg.bits) - 1; }

    /** Abort any conversion (reboot). */
    void powerLost();

    /// @name Snapshot support (see sim/snapshot.hh)
    /// @{
    void saveState(sim::SnapshotWriter &w) const;
    void restoreState(sim::SnapshotReader &r,
                      sim::EventRearmer &rearmer);
    /// @}

  private:
    /** Snapshot field list (DESIGN.md section 8.1). */
    template <class Ar> void fields(Ar &a);

    void start(unsigned channel);
    void finish();

    sim::TimeCursor &cursor;
    energy::PowerSystem &power;
    AdcConfig cfg;
    energy::PowerSystem::LoadHandle convLoad;
    std::map<unsigned, ChannelFn> channels;
    unsigned curChannel = 0;
    std::uint32_t value = 0;
    bool busy = false;
    bool done = false;
    sim::EventId convEvent = sim::invalidEventId;
    sim::Tick convDueAt = 0;
};

} // namespace edb::mcu

#endif // EDB_MCU_ADC_HH
