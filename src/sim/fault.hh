/**
 * @file
 * Deterministic fault injection.
 *
 * A `FaultInjector` perturbs a running simulation according to a
 * `FaultPlan`: corrupting, dropping or duplicating debug-UART bytes,
 * glitching EDB's ADC samples, blanking the harvester during RF fade
 * windows, and forcing target brown-outs at chosen ticks or
 * instruction counts. Each plan carries its own seed and the injector
 * owns a private `Rng`, so fault sequences are reproducible and,
 * crucially, an injector that is disabled (or absent) perturbs
 * nothing — not even the simulator's shared random stream.
 *
 * The injector is deliberately generic: it knows nothing about
 * energy, UARTs or MCUs. Subsystems opt in by routing values through
 * its hooks (`EdbBoard::injectFaults`, `energy::FadedHarvester`, an
 * MCU tracer calling `onInstruction`).
 */

#ifndef EDB_SIM_FAULT_HH
#define EDB_SIM_FAULT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/simulator.hh"
#include "sim/time.hh"

namespace edb::sim {

class SnapshotWriter;
class SnapshotReader;
class EventRearmer;

/** A window during which the ambient energy source is gone. */
struct FadeWindow
{
    Tick start = 0;
    Tick length = 0;
};

/** Everything a fault scenario is allowed to do, plus its seed. */
struct FaultPlan
{
    /** Seeds the injector's private random stream. */
    std::uint64_t seed = 1;
    /** Master switch; a disabled plan injects nothing. */
    bool enabled = true;

    /// @name Debug-UART wire faults (per byte, either direction)
    /// @{
    double uartCorruptProb = 0.0; ///< Flip a random bit.
    double uartDropProb = 0.0;    ///< Byte never arrives.
    double uartDupProb = 0.0;     ///< Byte delivered twice.
    /// @}

    /// @name EDB ADC faults (per sample)
    /// @{
    double adcGlitchProb = 0.0;
    double adcGlitchMagnitudeVolts = 0.5; ///< Max |offset| injected.
    /// @}

    /** Harvester dropout windows (RF fades). */
    std::vector<FadeWindow> fades;

    /** Force a target brown-out at each of these ticks. */
    std::vector<Tick> brownOutAtTick;
    /** Force a brown-out at this retired-instruction count (0 = off). */
    std::uint64_t brownOutAtInstr = 0;

    /// @name Torn NV writes (multi-word commit bursts)
    /// @{
    /**
     * Force a brown-out at the Nth NV commit-burst word (1-based,
     * counted cumulatively across commits via `onNvCommitWord`;
     * 0 = off). The power fails while that word's write is in flight,
     * so the burst tears: the prefix is committed, the suffix keeps
     * its old contents, and the in-flight word is either unwritten or
     * — with `nvTornCorruptProb` — lands with corrupted bits.
     */
    std::uint64_t nvTearAtCommitWord = 0;
    /** Probability the in-flight word of a torn burst is written
     *  with random bits flipped (a partial cell write). */
    double nvTornCorruptProb = 0.0;
    /// @}
};

/**
 * Torn-commit plan: a brown-out at a `seed`-derived NV commit word
 * in [1, 120] — any word of any commit burst (a frame is 23
 * header/seal words plus the stack image, so later commits get hit
 * too) — with the in-flight word corrupted half the time.
 */
FaultPlan tornCommitPlan(std::uint64_t seed);

/**
 * Client-side wire faults for the debug server (DESIGN.md §13): how
 * an adversarial or unlucky frontend mangles the frames it puts on
 * its connection. Applied per *frame* (the unit a JSON-RPC client
 * emits), unlike the per-byte UART model above, so one plan can
 * express whole-frame pathologies — truncation, replay, duplication,
 * byte-soup preambles, slowloris trickling and mid-command
 * disconnects — that a byte-wise model cannot.
 */
struct ClientFaultPlan
{
    /** Seeds the private random stream. */
    std::uint64_t seed = 1;
    /** Master switch; a disabled plan perturbs nothing. */
    bool enabled = true;

    double corruptProb = 0.0;  ///< Flip one random bit in the frame.
    double dropProb = 0.0;     ///< Whole frame never sent.
    double truncateProb = 0.0; ///< Frame cut short mid-payload.
    double dupProb = 0.0;      ///< Frame sent twice back to back.
    double replayProb = 0.0;   ///< A previously sent frame re-sent.
    double garbageProb = 0.0;  ///< 1..16 random bytes injected first.

    /** Deliver at most this many bytes per server poll (0 = no
     *  limit): the slowloris client, whose frames never finish
     *  inside the parser's inter-byte window. */
    unsigned slowlorisBytesPerPoll = 0;
    /** Hard-disconnect after this many frames (0 = never) — the
     *  mid-command vanishing client. */
    std::uint32_t disconnectAfterFrames = 0;
};

/** Applies a ClientFaultPlan to a client's outbound frames. */
class ClientWireFaults
{
  public:
    struct Stats
    {
        std::uint64_t frames = 0;
        std::uint64_t corrupted = 0;
        std::uint64_t dropped = 0;
        std::uint64_t truncated = 0;
        std::uint64_t duplicated = 0;
        std::uint64_t replayed = 0;
        std::uint64_t garbageBytes = 0;
        std::uint64_t disconnects = 0;
    };

    explicit ClientWireFaults(ClientFaultPlan plan)
        : plan_(plan), rng(plan.seed)
    {}

    /**
     * Mangle one outbound frame into the byte sequence actually put
     * on the wire (possibly empty). Deterministic per plan seed.
     */
    std::vector<std::uint8_t>
    onFrame(const std::vector<std::uint8_t> &frame);

    /** Slowloris byte budget per server poll (0 = unlimited). */
    unsigned
    byteBudgetPerPoll() const
    {
        return plan_.enabled ? plan_.slowlorisBytesPerPoll : 0;
    }

    /** True once `disconnectAfterFrames` frames have gone out (the
     *  trigger frame itself is still delivered). */
    bool
    wantsDisconnect() const
    {
        return plan_.enabled && plan_.disconnectAfterFrames != 0 &&
               stats_.frames >= plan_.disconnectAfterFrames;
    }

    const ClientFaultPlan &plan() const { return plan_; }
    const Stats &stats() const { return stats_; }

  private:
    ClientFaultPlan plan_;
    Rng rng;
    std::vector<std::uint8_t> lastFrame;
    Stats stats_;
};

/** Executes a FaultPlan against a simulation. */
class FaultInjector : public Component
{
  public:
    /** What became of one wire byte. */
    struct WireResult
    {
        std::uint8_t bytes[2] = {0, 0};
        int count = 1; ///< 0 dropped, 1 delivered, 2 duplicated.
    };

    struct Stats
    {
        std::uint64_t wireBytes = 0;
        std::uint64_t corrupted = 0;
        std::uint64_t dropped = 0;
        std::uint64_t duplicated = 0;
        std::uint64_t adcGlitches = 0;
        std::uint64_t brownOutsForced = 0;
        std::uint64_t nvCommitWords = 0;
        std::uint64_t nvTears = 0;
        std::uint64_t nvTornWordsCorrupted = 0;
    };

    FaultInjector(Simulator &simulator, std::string component_name,
                  FaultPlan fault_plan = {});

    bool enabled() const { return plan_.enabled; }
    const FaultPlan &plan() const { return plan_; }

    /**
     * Pass one debug-UART byte through the wire-fault model.
     * Returns the byte(s) to actually deliver (possibly corrupted,
     * dropped or duplicated).
     */
    WireResult onWire(std::uint8_t byte);

    /** Pass one EDB ADC sample (volts) through the glitch model. */
    double onAdc(double volts);

    /** True while `when` falls inside a fade window. */
    bool inFade(Tick when) const;
    /** Fade check in the seconds domain (harvester models). */
    bool inFadeSeconds(double seconds) const;

    /**
     * Schedule the plan's tick-based brown-outs; `fire` runs at each
     * configured tick (typically dropping the target's capacitor
     * below the brown-out threshold).
     */
    void armBrownOuts(std::function<void()> fire);

    /**
     * Count one retired instruction; fires the armed brown-out
     * callback when the count reaches `plan.brownOutAtInstr`. Call
     * from an MCU tracer.
     */
    void onInstruction();

    /**
     * Count one NV commit-burst word; fires the armed brown-out
     * callback when the cumulative count reaches
     * `plan.nvTearAtCommitWord`, producing a torn write. Called by
     * the MCU's interruptible checkpoint commit before each word's
     * energy is drained, so the forced voltage drop lands exactly on
     * that word's drain step — deterministic under the plan.
     */
    void onNvCommitWord();

    /**
     * Disposition of the in-flight word of a torn burst: with
     * `plan.nvTornCorruptProb`, flips 1..4 random bits in `word` and
     * returns true (the caller writes the corrupted word); otherwise
     * returns false (the word is simply never written).
     */
    bool onTornWord(std::uint32_t &word);

    const Stats &stats() const { return stats_; }

    /// @name Snapshot support (see sim/snapshot.hh)
    /// Restore rearms only brown-out events still in the future,
    /// using the callback from the live `armBrownOuts` call — the
    /// plan itself is construction config and must match.
    /// @{
    void saveState(SnapshotWriter &w) const;
    void restoreState(SnapshotReader &r, EventRearmer &rearmer);
    /// @}

  private:
    /** Snapshot field list (DESIGN.md section 8.1). */
    template <class Ar> void fields(Ar &a);

    void fireBrownOut();

    FaultPlan plan_;
    /** Private stream: never the simulator's shared RNG, so an
     *  enabled-but-idle injector cannot perturb other models. */
    Rng rng;
    std::function<void()> brownOutFn;
    std::uint64_t instrCount = 0;
    std::uint64_t nvCommitWordCount = 0;
    /** Armed brown-out events: (id, due tick), snapshot residue. */
    std::vector<std::pair<EventId, Tick>> armed_;
    Stats stats_;
};

} // namespace edb::sim

#endif // EDB_SIM_FAULT_HH
