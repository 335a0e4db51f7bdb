/**
 * @file
 * The EDB board: the paper's primary contribution, in simulation.
 *
 * Wires onto a `target::Wisp` through the `ConnectionSet` harness
 * and provides:
 *
 *  Passive mode (Section 3.1) — concurrent, timestamped streams of
 *  energy samples, program events (code markers), wired-bus I/O and
 *  RFID messages, all gathered without supplying energy to the
 *  target beyond the sub-uA pin leakages of Table 2.
 *
 *  Active mode (Section 3.2) — energy save / tether / restore around
 *  debugging tasks of arbitrary cost.
 *
 *  Debugging primitives (Section 3.3) — code / energy / combined
 *  breakpoints, keep-alive assertions, energy guards,
 *  energy-interference-free printf, and interactive sessions.
 */

#ifndef EDB_EDB_BOARD_HH
#define EDB_EDB_BOARD_HH

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "edb/charge_circuit.hh"
#include "edb/connection.hh"
#include "edb/edb_adc.hh"
#include "edb/protocol.hh"
#include "edb/session.hh"
#include "energy/supply.hh"
#include "rfid/channel.hh"
#include "sim/fault.hh"
#include "target/wisp.hh"
#include "trace/trace.hh"

namespace edb::sim {
class SnapshotWriter;
class SnapshotReader;
class EventRearmer;
} // namespace edb::sim

namespace edb::edbdbg {

/** EDB board configuration. */
struct EdbConfig
{
    /** Passive energy-trace sampling period. */
    sim::Tick energySamplePeriod = 1 * sim::oneMs;
    /** Firmware latency from request-line edge to active-mode entry. */
    sim::Tick reqLatency = 50 * sim::oneUs;
    /** Tethered ("keep-alive") supply parameters. */
    double tetherVolts = 3.0;
    double tetherOhms = 50.0;
    /** Rearm hysteresis for energy breakpoints. */
    double energyBkptHysteresis = 0.05;
    EdbAdcConfig adc = {};
    ChargeCircuitConfig charge = {};
    /** Model the passive pin leakages on the target supply. */
    bool attachPassiveLeakage = true;

    /// @name Link-robustness knobs
    /// @{
    /** Episode watchdog period: how long the board waits for frame
     *  progress before probing the target with cmdStatus. */
    sim::Tick linkProbeTimeout = 20 * sim::oneMs;
    /** Fruitless probes while awaiting an event frame before the
     *  episode is abandoned as link-dead. */
    unsigned linkProbeMax = 5;
    /** Probe budget inside an energy guard (guard bodies legitimately
     *  run for a long time without traffic, so this is a backstop
     *  against true deadlock, not a responsiveness bound). */
    unsigned guardProbeMax = 500;
    /** ackRestored retransmissions before the episode is forced
     *  closed (the request line never fell). */
    unsigned ackRetryMax = 5;
    /** Per-command retry budgets for session reads/writes/resume. */
    unsigned readRetryMax = 4;
    unsigned writeRetryMax = 4;
    unsigned resumeRetryMax = 4;
    /** Largest single memory-read request (reply must fit one
    frame). */
    std::uint16_t readChunk = 48;
    /** Host parser inter-byte resync timeout. */
    sim::Tick interByteTimeout = 2 * sim::oneMs;
    /// @}
};

/** Link-health counters for one board (see also ProtocolEngine
 *  stats for parse-level counters). */
struct LinkStats
{
    std::uint64_t probes = 0;          ///< cmdStatus probes sent.
    std::uint64_t ackRetransmits = 0;  ///< ackRestored resends.
    std::uint64_t readRetries = 0;
    std::uint64_t writeRetries = 0;
    std::uint64_t resumeRetries = 0;
    /** Episodes completed via a recovery path (event frame lost,
     *  restore deadline, ...) rather than the happy path. */
    std::uint64_t degradedEpisodes = 0;
    /** Episodes abandoned outright (link dead, ack lost). */
    std::uint64_t abortedEpisodes = 0;
};

/** Which passive streams are being recorded (Table 1 `trace ...`). */
struct TraceStreams
{
    bool energy = false;
    bool iobus = false;
    bool rfid = false;
    bool watchpoints = false;
};

/** The Energy-interference-free Debugger board. */
class EdbBoard : public sim::Component
{
  public:
    /** Printf output sink (console display). */
    using PrintfSink = std::function<void(const std::string &)>;
    /** Session-opened notification. */
    using SessionHook = std::function<void(DebugSession &)>;

    /**
     * Attach EDB to a target.
     * @param channel Optional RFID air interface to monitor.
     */
    EdbBoard(sim::Simulator &simulator, std::string component_name,
             target::Wisp &target_device,
             rfid::RfChannel *channel = nullptr, EdbConfig config = {});

    /// @name Passive monitoring
    /// @{
    trace::TraceBuffer &traceBuffer() { return traceBuf; }
    TraceStreams &streams() { return streams_; }
    /** Enable/disable a stream by name ("energy", "iobus", "rfid",
     *  "watchpoints"); returns false for an unknown name. */
    bool setStream(const std::string &stream_name, bool on);
    /** Latest ADC reading of the target's Vcap. */
    double lastVcap() const { return lastVcapVolts; }
    /// @}

    /// @name Watchpoints
    /// @{
    void enableWatchpoint(unsigned id);
    void disableWatchpoint(unsigned id);
    bool watchpointEnabled(unsigned id) const;
    /// @}

    /// @name Breakpoints (code / energy / combined, Section 3.3.1)
    /// @{
    /** Enable a code breakpoint; with `energy_threshold` it becomes
     *  a combined breakpoint that only fires at or below it. */
    void enableCodeBreakpoint(unsigned id,
                              std::optional<double> energy_threshold =
                                  std::nullopt);
    void disableCodeBreakpoint(unsigned id);
    /** Enable the energy breakpoint at the given level. */
    void enableEnergyBreakpoint(double volts);
    void disableEnergyBreakpoint();
    /// @}

    /// @name Sessions (synchronous host side; pumps the simulator)
    /// @{
    /** Currently open session (nullptr when none). */
    DebugSession *session() { return activeSession.get(); }
    /** Pump until a session opens. */
    bool waitForSession(sim::Tick timeout);
    /** Pump until the board returns to passive mode. */
    bool waitPassive(sim::Tick timeout);
    /** Break into the running target on demand. */
    bool breakIn(sim::Tick timeout = 200 * sim::oneMs);
    /// @}

    /// @name Manual energy manipulation (Table 1 charge/discharge)
    /// @{
    bool chargeTo(double volts, sim::Tick timeout = sim::oneSec);
    bool dischargeTo(double volts, sim::Tick timeout = sim::oneSec);
    /// @}

    /** Printf output hook. */
    void setPrintfSink(PrintfSink sink) { printfSink = std::move(sink); }
    /** Session-open hook. */
    void setSessionHook(SessionHook hook)
    {
        sessionHook = std::move(hook);
    }

    /**
     * Route both debug-UART directions and the board ADC through a
     * fault injector (nullptr detaches). With no injector — or a
     * disabled plan — behaviour is bit-identical to an unfaulted
     * board.
     */
    void injectFaults(sim::FaultInjector *fault_injector);

    /**
     * Attach the NV consistency auditor (nullptr detaches) through
     * `target::Wisp::attachAuditor`, and make the board break the
     * target in — opening a ConsistencyViolation session — whenever
     * fresh WAR findings appear. Findings are
     * produced at power loss, when nothing can run, so the break-in
     * happens from the passive sampling loop once the target is back
     * up. The auditor outlives the attachment (caller-owned).
     */
    void attachAuditor(mem::NvAuditor *auditor);
    mem::NvAuditor *auditor() const { return audit_; }

    /// @name Introspection
    /// @{
    target::Wisp &target() { return wisp; }
    ConnectionSet &connections() { return pins; }
    EdbAdc &adc() { return adc_; }
    ChargeCircuit &chargeCircuit() { return charger; }
    const EdbConfig &config() const { return cfg; }
    bool tethered() const { return tether.enabled(); }
    bool passive() const { return mode == Mode::Passive; }
    std::uint64_t printfCount() const { return printfs; }
    std::uint64_t guardCount() const { return guards; }
    std::uint64_t assertCount() const { return asserts; }
    std::uint64_t breakpointCount() const { return bkpts; }
    double lastSavedVolts() const { return savedVolts; }
    double lastRestoredVolts() const { return restoredVolts; }
    /** True (oscilloscope-grade) voltages at the save/restore
     *  instants, for Table 3's independent measurement column. */
    double trueSavedVolts() const { return lastSavedTrue; }
    double trueRestoredVolts() const { return lastRestoredTrue; }
    /** Link-health counters. */
    const LinkStats &linkStats() const { return linkStats_; }
    /** Why the last degraded/aborted episode ended ("" = none). */
    const std::string &lastAbortReason() const
    {
        return lastAbortReason_;
    }
    /** Host-side frame parser (stats inspection). */
    const ProtocolEngine &protocolEngine() const { return protocol; }
    /// @}

    /** Pump the simulator for a fixed duration. */
    void pumpFor(sim::Tick duration);

    /** Pump the simulator until `cond` holds or `timeout` elapses. */
    bool pumpUntil(const std::function<bool()> &cond, sim::Tick timeout);

    /// @name Snapshot support (see sim/snapshot.hh)
    /// Covers the supervision state machine — mode, retry/probe
    /// counters, watchdog & sampling events, the host parser and the
    /// debugger->target UART queue — plus a fingerprint of every
    /// retry/backoff config knob. Restoring against a board built
    /// with different supervision parameters invalidates the reader
    /// instead of silently resetting budgets mid-episode. The
    /// host-side DebugSession object and the passive trace buffer do
    /// not travel (observability, not behaviour); a snapshot taken
    /// mid-charge-ramp restarts the ramp from the restored capacitor
    /// level (bounded by the charger's own deadline).
    /// @{
    void saveState(sim::SnapshotWriter &w) const;
    void restoreState(sim::SnapshotReader &r,
                      sim::EventRearmer &rearmer);
    /// @}

  private:
    /** Snapshot field list (DESIGN.md section 8.1). The charger's
     *  activity travels but is restored by restoreState itself. */
    template <class Ar> void fields(Ar &a, bool &chargerActive);

    friend class DebugSession;

    enum class Mode
    {
        Passive,    ///< Monitoring only.
        AwaitFrame, ///< Tethered; waiting for the frame type.
        GuardActive,///< Inside an energy guard.
        InSession,  ///< Interactive session open.
        Restoring,  ///< Discharging/charging back to the saved level.
    };

    void sampleEnergy();
    void onReqChange(bool level, sim::Tick when);
    void enterActive();
    void onDebugByte(std::uint8_t byte, sim::Tick when);
    void onMarker(std::uint32_t id, sim::Tick when);
    void sendToTarget(std::uint8_t byte);
    void sendFrame(const std::vector<std::uint8_t> &payload);
    void pumpTxQueue();
    void deliverTxByte();
    void beginRestore(bool ack_after);
    void armRestoreRamp();
    void closeEpisode();
    void openSession(SessionReason reason, std::uint16_t id);
    void episodeWatchdog();
    void cancelWatchdog();

    // Session support (invoked by DebugSession).
    std::optional<std::vector<std::uint8_t>>
    sessionRead(std::uint32_t addr, std::uint16_t len,
                sim::Tick timeout);
    bool sessionWrite(std::uint32_t addr, std::uint32_t value,
                      sim::Tick timeout);
    void sessionResume();

    target::Wisp &wisp;
    rfid::RfChannel *rfChannel;
    EdbConfig cfg;
    ConnectionSet pins;
    EdbAdc adc_;
    ChargeCircuit charger;
    energy::VoltageSupply tether;
    ProtocolEngine protocol;
    trace::TraceBuffer traceBuf;
    TraceStreams streams_;

    Mode mode = Mode::Passive;
    SessionReason pendingIrqReason = SessionReason::Manual;
    double savedVolts = 0.0;
    double restoredVolts = 0.0;
    double lastSavedTrue = 0.0;
    double lastRestoredTrue = 0.0;
    double lastVcapVolts = 0.0;
    bool reqHigh = false;
    sim::EventId reqHandlerEvent = sim::invalidEventId;
    sim::Tick reqHandlerDue = 0;

    // Passive energy-sampling event (self-rescheduling).
    sim::EventId sampleEvent = sim::invalidEventId;
    sim::Tick sampleDue = 0;

    // Watchpoint filter: empty set + watchAll => log everything.
    bool watchAll = true;
    std::map<unsigned, bool> watchpoints;

    // Code/combined breakpoints: id -> optional energy threshold.
    std::map<unsigned, std::optional<double>> codeBkpts;
    std::optional<double> energyBkptVolts;
    bool energyBkptArmed = true;

    std::unique_ptr<DebugSession> activeSession;
    PrintfSink printfSink;
    SessionHook sessionHook;

    // Debugger->target UART pacing. One byte is in flight at a time
    // (txBusy); its value and delivery event are tracked so snapshots
    // can rearm a mid-byte transmission exactly.
    std::deque<std::uint8_t> txQueue;
    bool txBusy = false;
    sim::EventId txEvent = sim::invalidEventId;
    sim::Tick txDue = 0;
    std::uint8_t txInFlight = 0;

    // Whether the in-progress restore ramp should send ackRestored
    // when it converges (beginRestore's ack_after, persisted so a
    // snapshot can restart the ramp with the same completion).
    bool restoreAckAfter = false;

    // Session read/write reply collection (one complete frame each).
    std::vector<std::uint8_t> lastReadReply;
    bool writeAcked = false;

    // Episode watchdog (probing / ack retransmission).
    sim::EventId watchdogEvent = sim::invalidEventId;
    sim::Tick watchdogDue = 0;
    unsigned probesSent = 0;
    unsigned ackRetries = 0;
    std::uint64_t framesOkAtLastCheck = 0;

    sim::FaultInjector *injector = nullptr;
    LinkStats linkStats_;
    std::string lastAbortReason_;

    mem::NvAuditor *audit_ = nullptr;
    /** Violation count already surfaced through a session. */
    std::uint64_t auditSeen = 0;

    std::uint64_t printfs = 0;
    std::uint64_t guards = 0;
    std::uint64_t asserts = 0;
    std::uint64_t bkpts = 0;
};

} // namespace edb::edbdbg

#endif // EDB_EDB_BOARD_HH
