/**
 * @file
 * UART peripheral with bit timing and transmit energy cost.
 *
 * Powering and clocking a UART to stream a log is one of the
 * energy-interfering instrumentation strategies the paper quantifies
 * (Table 4: "UART printf" lowers the iteration success rate from 87%
 * to 74%). The model charges an extra supply current while the
 * shifter is active and makes the transmit take real bus time.
 */

#ifndef EDB_MCU_UART_HH
#define EDB_MCU_UART_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

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

/** Configuration of a UART instance. */
struct UartConfig
{
    double baud = 115200.0;
    /**
     * Extra supply current while the transmitter is shifting. The
     * console-UART default includes driving the input stage of a
     * non-isolated off-the-shelf USB-to-serial adapter, which the
     * paper (Section 2.2) notes "permit[s] energy to flow into or
     * out of the device".
     */
    double txActiveAmps = 2.2e-3;
    /** Bits per byte on the wire (start + 8 data + stop). */
    double bitsPerByte = 10.0;
    /** Receive FIFO depth; overflow drops the oldest byte. */
    std::size_t rxFifoDepth = 16;
};

/**
 * Target-side UART. The "wire" is exposed through listeners (for the
 * host / EDB's I/O sniffer) and `receiveByte` (for inbound traffic).
 */
class Uart : public sim::Component
{
  public:
    /** Byte completed on the TX wire at `when`. */
    using TxListener = std::function<void(std::uint8_t, sim::Tick)>;

    Uart(sim::Simulator &simulator, std::string component_name,
         sim::TimeCursor &cursor, energy::PowerSystem &power,
         UartConfig config = {});

    /**
     * Install TX / STATUS / RX registers.
     * @param tx_addr Transmit register address.
     * @param status_addr Status register (bit0 txBusy, bit1 rxAvail).
     * @param rx_addr Receive register address.
     */
    void installMmio(mem::MmioRegion &mmio, mem::Addr tx_addr,
                     mem::Addr status_addr, mem::Addr rx_addr);

    /** Observe completed TX bytes on the wire. */
    void addTxListener(TxListener listener);

    /** Deliver a byte from the wire into the RX FIFO. */
    void receiveByte(std::uint8_t byte);

    /** True while a byte is shifting out. */
    bool txBusy() const { return busy; }

    /** Bytes waiting in the RX FIFO. */
    std::size_t rxAvailable() const { return rxFifo.size(); }

    /** Wire time of one byte. */
    sim::Tick byteTime() const;

    /** Abort any in-flight byte and clear FIFOs (reboot). */
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

    void startTx(std::uint8_t byte);
    void finishTx();

    sim::TimeCursor &cursor;
    energy::PowerSystem &power;
    UartConfig cfg;
    energy::PowerSystem::LoadHandle txLoad;
    std::deque<std::uint8_t> rxFifo;
    std::vector<TxListener> txListeners;
    bool busy = false;
    std::uint8_t shifting = 0;
    sim::EventId txEvent = sim::invalidEventId;
    sim::Tick txDueAt = 0;
    std::uint64_t txCount = 0;
    std::uint64_t txDropped = 0;

  public:
    /** Bytes successfully transmitted. */
    std::uint64_t transmittedBytes() const { return txCount; }
    /** Bytes written while busy (dropped). */
    std::uint64_t droppedBytes() const { return txDropped; }
};

} // namespace edb::mcu

#endif // EDB_MCU_UART_HH
