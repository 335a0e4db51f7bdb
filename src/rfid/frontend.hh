/**
 * @file
 * Tag-side RF front end: demodulator RX FIFO and backscatter TX.
 *
 * The target's firmware (the WISP RFID application of paper
 * Section 5.3.4) decodes frames from this peripheral in software and
 * assembles replies byte by byte. An unpowered tag cannot latch
 * frames — which is exactly why the response rate correlates with
 * the energy trace in Figure 12.
 */

#ifndef EDB_RFID_FRONTEND_HH
#define EDB_RFID_FRONTEND_HH

#include <cstdint>
#include <deque>
#include <string>

#include "energy/power_system.hh"
#include "mem/memory.hh"
#include "rfid/protocol.hh"
#include "sim/simulator.hh"
#include "sim/time_cursor.hh"

namespace edb::sim {
class SnapshotWriter;
class SnapshotReader;
class EventRearmer;
} // namespace edb::sim

namespace edb::rfid {

class RfChannel;

/** Front-end configuration. */
struct RfFrontendConfig
{
    /** Extra supply current while backscattering a reply. */
    double txActiveAmps = 0.15e-3;
    /** RX FIFO depth in frames. */
    std::size_t rxFifoDepth = 4;
};

/** Demodulator / modulator pair of the tag. */
class RfFrontend : public sim::Component
{
  public:
    RfFrontend(sim::Simulator &simulator, std::string component_name,
               sim::TimeCursor &cursor, energy::PowerSystem &power,
               RfChannel &channel, RfFrontendConfig config = {});

    /** Install RX/TX registers into the MMIO region. */
    void installMmio(mem::MmioRegion &mmio);

    /** Channel-side delivery of a demodulated frame. */
    void frameArrived(const Frame &frame);

    /** True while a reply is being backscattered. */
    bool txBusy() const { return txActive; }

    /** Frames waiting in the RX FIFO. */
    std::size_t rxPending() const { return rxFifo.size(); }

    /** Reset on power loss. */
    void powerLost();

    /// @name Statistics
    /// @{
    std::uint64_t framesReceived() const { return rxCount; }
    std::uint64_t framesTransmitted() const { return txCount; }
    std::uint64_t framesDroppedUnpowered() const { return rxDropped; }
    /// @}

    /// @name Snapshot support (see sim/snapshot.hh)
    /// Restoring mid-backscatter rearms the completion event but does
    /// not re-send on the channel: the original frame is already in
    /// flight from the saved run's perspective, and reader-side state
    /// is outside the tag snapshot boundary.
    /// @{
    void saveState(sim::SnapshotWriter &w) const;
    void restoreState(sim::SnapshotReader &r,
                      sim::EventRearmer &rearmer);
    /// @}

  private:
    /** Snapshot field list (DESIGN.md section 8.1). */
    template <class Ar> void fields(Ar &a);

    void startTx();
    void finishTx();

    sim::TimeCursor &cursor;
    energy::PowerSystem &power;
    RfChannel &channel;
    RfFrontendConfig cfg;
    energy::PowerSystem::LoadHandle txLoad;

    /** RX FIFO of (type + payload) byte streams. */
    std::deque<std::deque<std::uint8_t>> rxFifo;
    std::vector<std::uint8_t> txFrame;
    bool txActive = false;
    sim::EventId txEvent = sim::invalidEventId;
    sim::Tick txDueAt = 0;

    std::uint64_t rxCount = 0;
    std::uint64_t txCount = 0;
    std::uint64_t rxDropped = 0;
};

} // namespace edb::rfid

#endif // EDB_RFID_FRONTEND_HH
