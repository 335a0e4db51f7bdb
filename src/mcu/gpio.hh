/**
 * @file
 * General-purpose I/O port.
 *
 * The case-study applications toggle GPIO pins to externally signal
 * progress (paper Figs 6-10: "the code toggles a GPIO pin to indicate
 * that the main loop is running"); EDB and the oscilloscope observe
 * the pins through listeners.
 */

#ifndef EDB_MCU_GPIO_HH
#define EDB_MCU_GPIO_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "mem/memory.hh"
#include "sim/simulator.hh"
#include "sim/time_cursor.hh"

namespace edb::sim {
class SnapshotWriter;
class SnapshotReader;
} // namespace edb::sim

namespace edb::mcu {

/** 32-pin output/input port with change listeners. */
class Gpio : public sim::Component
{
  public:
    /** Called on each output pin change with (pin, level, when). */
    using Listener =
        std::function<void(unsigned, bool, sim::Tick)>;

    Gpio(sim::Simulator &simulator, std::string component_name,
         sim::TimeCursor &cursor);

    /** Install OUT / IN / TOGGLE registers into the MMIO region. */
    void installMmio(mem::MmioRegion &mmio);

    /** Current output word. */
    std::uint32_t output() const { return out; }

    /** Level of one output pin. */
    bool pin(unsigned index) const { return (out >> index) & 1u; }

    /** External input drive (e.g. a switch or another device). */
    void setInput(unsigned index, bool level);

    /** Observe output changes. */
    void addListener(Listener listener);

    /** Reset on power loss: all outputs low (listeners notified). */
    void powerLost();

    /// @name Snapshot support (see sim/snapshot.hh)
    /// Restore writes the pin words raw — no listener notifications,
    /// since the restored run's observers re-attach fresh.
    /// @{
    void saveState(sim::SnapshotWriter &w) const;
    void restoreState(sim::SnapshotReader &r);
    /// @}

  private:
    /** Snapshot field list (DESIGN.md section 8.1). */
    template <class Ar> void fields(Ar &a);

    void writeOut(std::uint32_t value);

    sim::TimeCursor &cursor;
    std::uint32_t out = 0;
    std::uint32_t in = 0;
    std::vector<Listener> listeners;
};

} // namespace edb::mcu

#endif // EDB_MCU_GPIO_HH
