/**
 * @file
 * Target power system: storage capacitor + harvester + loads +
 * comparators.
 *
 * This is the analog core of the intermittent execution model
 * (paper Fig 2): the harvester charges the capacitor through its
 * source resistance; when the voltage reaches the turn-on threshold
 * the device boots and its load discharges the capacitor; when the
 * voltage falls below the brown-out threshold the device powers off
 * and the cycle repeats.
 *
 * Loads are piecewise-constant current sinks owned by device
 * components (MCU core, peripherals, LEDs). Sources are signed
 * current functions of (voltage, time) — the harvester, EDB's
 * charge/discharge circuit, tethered supplies and per-pin leakage all
 * inject through this interface, which is what makes
 * energy-interference a *measured* quantity in this reproduction.
 */

#ifndef EDB_ENERGY_POWER_SYSTEM_HH
#define EDB_ENERGY_POWER_SYSTEM_HH

#include <cstddef>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "energy/capacitor.hh"
#include "energy/harvester.hh"
#include "sim/simulator.hh"
#include "sim/time.hh"

namespace edb::sim {
class SnapshotWriter;
class SnapshotReader;
class EventRearmer;
} // namespace edb::sim

namespace edb::energy {

/** Static electrical parameters of a target power system. */
struct PowerSystemConfig
{
    /** Storage capacitance (WISP 5: 47 uF). */
    double capacitanceF = 47e-6;
    /** Comparator turn-on threshold (WISP 5: 2.4 V). */
    double turnOnVolts = 2.4;
    /** Comparator brown-out threshold (WISP 5: 1.8 V). */
    double brownOutVolts = 1.8;
    /** Board leakage while powered off. */
    double offLeakageAmps = 1.0e-6;
    /** Regulator nominal output. */
    double regulatorVolts = 2.0;
    /** Protection clamp on the capacitor voltage. */
    double maxVolts = 5.0;
    /** Initial capacitor voltage. */
    double initialVolts = 0.0;
    /**
     * Fire the power-on transition from `start()` when the initial
     * voltage is already above turn-on. Historically the comparator
     * only reports *crossings*, so a pre-charged device stayed
     * dormant until its first brown-out/recharge cycle; fleet worlds
     * opt in so a charged tag executes from tick zero. Off by
     * default to preserve existing single-world trajectories.
     */
    bool bootOnStart = false;
    /**
     * Relative sigma of multiplicative harvester noise, resampled
     * each integration step. Ambient RF power fluctuates with
     * fading, reader frequency hopping and antenna motion; this
     * keeps charge-discharge cycles from phase-locking to the
     * program loop the way an ideal constant source would.
     */
    double harvestNoiseSigma = 0.05;
    /** Integration sub-step ceiling. */
    sim::Tick maxStep = 5 * sim::oneUs;
    /** Self-tick period that keeps the model advancing while idle. */
    sim::Tick idleTickPeriod = 20 * sim::oneUs;
    /**
     * Amortized-integration fast path: cache the enabled-load sum
     * behind a dirty flag, hoist the ticks->seconds conversion of
     * full-size sub-steps out of the integration loop, and skip the
     * harvest-noise branch when sigma is zero. Bit-identical to the
     * reference path (same sub-step sequence, same RNG draws, same
     * double arithmetic); the flag exists so the determinism suite
     * can diff the two.
     */
    bool fastIntegration = true;
};

/**
 * Integrates the capacitor voltage under harvester + load currents
 * and drives the power-good comparator with hysteresis.
 */
class PowerSystem : public sim::Component
{
  public:
    using LoadHandle = std::size_t;
    using SourceHandle = std::size_t;
    /** Signed current into the capacitor, amps, as f(volts, seconds). */
    using SourceFn = std::function<double(double, double)>;
    /** Power-state listener: called with true on turn-on, false on
     *  brown-out. */
    using PowerListener = std::function<void(bool)>;

    PowerSystem(sim::Simulator &simulator, std::string component_name,
                PowerSystemConfig config, const Harvester *harvester);

    /** Begin self-ticking; call once after wiring up the device. */
    void start();

    /// @name Loads (piecewise-constant current sinks)
    /// @{
    LoadHandle addLoad(std::string load_name, double amps = 0.0,
                       bool enabled = true);
    void setLoadCurrent(LoadHandle handle, double amps);
    void setLoadEnabled(LoadHandle handle, bool enabled);
    double loadCurrent(LoadHandle handle) const;
    bool loadEnabled(LoadHandle handle) const;
    /** Sum of all enabled load currents right now. */
    double
    totalLoadAmps() const
    {
        if (loadSumValid)
            return loadSum;
        double total = 0.0;
        for (const auto &load : loads) {
            if (load.enabled)
                total += load.amps;
        }
        // Same summation order as always, so the cached value is
        // bit-identical to a fresh recomputation.
        if (cfg.fastIntegration) {
            loadSum = total;
            loadSumValid = true;
        }
        return total;
    }
    /// @}

    /// @name Sources (signed current injections, f(volts, seconds))
    /// @{
    /**
     * Attach a source. `worst_draw_amps` is the caller's bound on
     * how much current the source can ever pull *out of* the
     * capacitor (max over all volts/time of `max(0, -fn(v, t))`);
     * the block-batched drain uses it to prove a whole instruction
     * block cannot brown out. The default — unbounded — is always
     * safe: it merely keeps the block fast path off while the source
     * is enabled.
     */
    SourceHandle addSource(std::string source_name, SourceFn fn,
                           double worst_draw_amps =
                               std::numeric_limits<double>::infinity());
    void setSourceEnabled(SourceHandle handle, bool enabled);
    /// @}

    /** Integrate the analog state up to `when` (idempotent). */
    void advanceTo(sim::Tick when);

    /**
     * Single-sub-step drain used by the MCU's per-instruction fast
     * path: exactly equivalent to `advanceTo(lastUpdateTick() + dt)`
     * for `0 < dt <= maxStep` (one integration sub-step, then the
     * comparator), but the caller supplies the precomputed
     * ticks->seconds conversion of `dt`, which the MCU caches per
     * decoded instruction. `dtSeconds` must equal
     * `sim::secondsFromTicks(dt)`. Falls back to advanceTo when
     * `dt > maxStep`. Defined inline below so the interpreter's
     * per-instruction call flattens into one leaf.
     */
    void
    drainStep(sim::Tick dt, double dtSeconds)
    {
        if (integrating || dt <= 0)
            return;
        if (dt > cfg.maxStep) {
            advanceTo(lastUpdate + dt);
            return;
        }
        // One sub-step, exactly as advanceTo(lastUpdate + dt) would.
        integrating = true;
        integrateStep(dtSeconds, sim::secondsFromTicks(lastUpdate));
        lastUpdate += dt;
        updateComparator();
        integrating = false;
    }

    /** One precomputed integration sub-step of a superblock's drain
     *  schedule: `dtSeconds` must equal `secondsFromTicks(dt)` and
     *  `0 < dt <= maxStep`. */
    struct DrainStep
    {
        sim::Tick dt = 0;
        double dtSeconds = 0.0;
    };

    /**
     * Conservative pre-check for `drainBlock`: can the capacitor be
     * drained for `worst_seconds` at the worst admissible rate
     * without ever crossing the brown-out threshold?
     *
     * The bound assumes zero harvester inflow — sound because every
     * `Harvester::currentInto` is non-negative and the noise
     * multiplier clamps at zero — and charges every enabled source
     * its declared `worst_draw_amps` (undeclared sources bound to
     * infinity, which simply fails the check). `blockDrainMargin`
     * absorbs the sub-1e-13 V accumulation slop between this single
     * product and the per-step forward-Euler arithmetic.
     */
    bool
    blockDrainAdmissible(double worst_seconds) const
    {
        if (!powered || integrating)
            return false;
        double draw = totalLoadAmps();
        for (const auto &src : sources) {
            if (src.enabled)
                draw += src.worstDrawAmps;
        }
        const double drop = draw * worst_seconds / cap.capacitance();
        return cap.voltage() - drop >
               cfg.brownOutVolts + blockDrainMargin;
    }

    /**
     * Monotonic counter bumped whenever the worst-case draw rate can
     * have changed (a load or source added, retuned, or switched).
     * Superblocks key their cached admission threshold on it, which
     * turns the steady-state admission check into one comparison.
     */
    std::uint64_t drawEpoch() const { return drawEpoch_; }

    /**
     * The voltage `admissibleAt` compares against for a fixed
     * worst-case drain duration; stays valid until `drawEpoch()`
     * moves. An enabled source with an unbounded draw declaration
     * yields +infinity, which simply fails every admission.
     */
    double
    admissionThresholdVolts(double worst_seconds) const
    {
        double draw = totalLoadAmps();
        for (const auto &src : sources) {
            if (src.enabled)
                draw += src.worstDrawAmps;
        }
        return cfg.brownOutVolts + blockDrainMargin +
               draw * worst_seconds / cap.capacitance();
    }

    /**
     * Cached-threshold admission: with `threshold_volts` from
     * `admissionThresholdVolts(s)` at the current draw epoch, this
     * decides exactly what `blockDrainAdmissible(s)` decides (the
     * rearranged comparison can only disagree within one ulp, noise
     * that `blockDrainMargin` dwarfs by seven orders of magnitude —
     * and either verdict is sound: admission is a conservative gate,
     * not an architectural effect).
     */
    bool
    admissibleAt(double threshold_volts) const
    {
        return powered && !integrating &&
               cap.voltage() > threshold_volts;
    }

    /**
     * Loop-fused form of `drainBlock`: the superblock executor owns
     * one of these across a dispatch and feeds each retired thunk's
     * exact sub-step to `substep` as it commits. The forward-Euler
     * update is a divide-latency chain carried through the voltage
     * (`(flatVoc - v) / flatRsrc`, then `(dq_in - dq_out) / capF`);
     * run after the fact over a whole block, that chain is the
     * critical path and nothing overlaps it. Interleaved with the
     * thunk loop, the out-of-order core hides it behind the next
     * thunk's architectural work. This is exactly the old batched
     * loop split at its loop boundary: the constructor performs the
     * same hoisted loads, `substep` the same per-sub-step arithmetic
     * (same RNG draws in the same order), `commit` the same
     * write-back — bit-identical either way.
     *
     * The caller must have passed `blockDrainAdmissible` over the
     * schedule's worst-case duration, which is what licenses skipping
     * the per-step comparator: the voltage provably never reaches the
     * brown-out threshold, and a powered comparator that observes no
     * crossing is a no-op.
     */
    class BlockDrainer
    {
      public:
        explicit BlockDrainer(PowerSystem &power)
            : ps(power), v(power.cap.voltage()),
              capF(power.cap.capacitance()),
              // Loads are piecewise-constant and nothing inside a
              // block can switch one, so the reference path would
              // recompute the same sum (in the same order) every
              // sub-step.
              outAmps(power.totalLoadAmps()), ci(power.chargeIn),
              co(power.chargeOut), lu(power.lastUpdate)
        {
            for (const auto &src : ps.sources)
                anySource |= src.enabled;
            needSeconds = !ps.flatSource || anySource;
            ps.integrating = true;
        }

        void
        substep(const DrainStep &s)
        {
            const double dt_seconds = s.dtSeconds;
            const double t_seconds =
                needSeconds ? sim::secondsFromTicks(lu) : 0.0;
            double in_amps;
            if (ps.flatSource) {
                double i = (ps.flatVoc - v) / ps.flatRsrc;
                in_amps = i > 0.0 ? i : 0.0;
            } else {
                in_amps = ps.harvester->currentInto(v, t_seconds);
            }
            if (ps.noiseEnabled && in_amps > 0.0) {
                double noise =
                    1.0 +
                    ps.sim().rng().gaussian(ps.cfg.harvestNoiseSigma);
                in_amps *= noise < 0.0 ? 0.0 : noise;
            }
            if (anySource) {
                for (const auto &src : ps.sources) {
                    if (src.enabled)
                        in_amps += src.fn(v, t_seconds);
                }
            }
            const double dq_in = in_amps * dt_seconds;
            const double dq_out = outAmps * dt_seconds;
            ci += dq_in;
            co += dq_out;
            // Capacitor::addCharge inlined, then the maxVolts clamp,
            // exactly as integrateStep leaves the voltage.
            v += (dq_in - dq_out) / capF;
            if (v < 0.0)
                v = 0.0;
            if (v > ps.cfg.maxVolts)
                v = ps.cfg.maxVolts;
            lu += s.dt;
        }

        /** Write the accumulated analog state back. Call exactly
         *  once; a no-op write-back when no substep ran. */
        void
        commit()
        {
            ps.chargeIn = ci;
            ps.chargeOut = co;
            ps.cap.setVoltage(v);
            ps.lastUpdate = lu;
            ps.integrating = false;
        }

      private:
        PowerSystem &ps;
        double v;
        const double capF;
        const double outAmps;
        double ci;
        double co;
        sim::Tick lu;
        bool anySource = false;
        bool needSeconds = true;
    };

    /**
     * Batched per-block drain: integrate the exact sub-step sequence
     * `steps[0..n)` in one call. Bit-identical to issuing
     * `drainStep(steps[k].dt, steps[k].dtSeconds)` once per step —
     * same forward-Euler arithmetic, same RNG draws in the same
     * order, same charge accounting — with the per-call loads hoisted
     * out of the loop (see BlockDrainer above for the admission
     * precondition and the comparator-skip argument).
     */
    void
    drainBlock(const DrainStep *steps, std::size_t n)
    {
        BlockDrainer drain(*this);
        for (std::size_t k = 0; k < n; ++k)
            drain.substep(steps[k]);
        drain.commit();
    }

    /**
     * Instantaneous charge withdrawal (coulombs), used by the NV
     * memory backend to bill energy-per-write against the storage
     * capacitor. Applied at the capacitor directly — no integration
     * step — then the comparator re-evaluates, so a write burst can
     * brown the device out mid-burst exactly like any other load.
     * No-op while an integration is in flight (batched block drains
     * never interleave with NV billing; the superblock tier is off
     * whenever an active NV backend is attached).
     */
    void
    drawCharge(double coulombs)
    {
        if (coulombs <= 0.0 || integrating)
            return;
        chargeOut += coulombs;
        cap.addCharge(-coulombs);
        updateComparator();
    }

    /** Time the analog state has been integrated up to. */
    sim::Tick lastUpdateTick() const { return lastUpdate; }

    /** Capacitor voltage after advancing to the present time. */
    double voltage();

    /** Capacitor voltage without advancing (for use in listeners). */
    double voltageNoAdvance() const { return cap.voltage(); }

    /** Regulated rail: min(Vcap, regulator nominal). Drops with Vcap
     *  during power failure, as the paper notes in Section 4.1.2. */
    double regulatedVoltage();

    /** Comparator output: true between turn-on and brown-out. */
    bool poweredOn() const { return powered; }

    /** Register a power-state listener. */
    void addPowerListener(PowerListener listener);

    /** Stored energy in joules at present voltage. */
    double storedEnergy() { return cap.energyAt(voltage()); }

    /** Max storable energy (at turn-on voltage), the paper's "%* of
     *  storage capacity" denominator. */
    double
    maxEnergy() const
    {
        return cap.energyAt(cfg.turnOnVolts);
    }

    /** Direct capacitor access for instruments and tests. */
    Capacitor &capacitor() { return cap; }
    const PowerSystemConfig &config() const { return cfg; }

    /** Swap the harvester model (non-owning). */
    void
    setHarvester(const Harvester *h)
    {
        harvester = h;
        refreshFlatSource();
    }

    /// @name Charge accounting (for conservation checks)
    /// @{
    double cumulativeChargeIn() const { return chargeIn; }
    double cumulativeChargeOut() const { return chargeOut; }
    /// @}

    /** Number of turn-on events since construction. */
    std::uint64_t bootCount() const { return boots; }
    /** Number of brown-out events since construction. */
    std::uint64_t brownOutCount() const { return brownOuts; }

    /**
     * Serialize the full analog + comparator state: capacitor
     * voltage, integrator bookkeeping, charge accounting, comparator
     * counters, per-load/per-source switch state and the pending
     * self-tick event. Loads and sources are saved positionally, so
     * save and restore sides must be wired identically (same device
     * assembly, same construction order).
     */
    void saveState(sim::SnapshotWriter &w) const;
    void restoreState(sim::SnapshotReader &r, sim::EventRearmer &rearmer);

  private:
    /** Snapshot field list (DESIGN.md section 8.1). */
    template <class Ar> void fields(Ar &a);

    struct Load
    {
        std::string name;
        double amps;
        bool enabled;
    };

    struct Source
    {
        std::string name;
        SourceFn fn;
        bool enabled;
        /** Declared bound on current pulled out of the capacitor. */
        double worstDrawAmps;
    };

    /** Safety margin of the block-drain pre-check (volts). The check
     *  compares one product against per-step summation; across the
     *  <= 32 sub-steps of a block the floating-point disagreement is
     *  bounded well below 1e-12 V, so a nanovolt dwarfs it. */
    static constexpr double blockDrainMargin = 1e-9;

    /** One forward-Euler sub-step (defined inline, it is the single
     *  hottest function in the simulator). */
    void
    integrateStep(double dt_seconds, double t_seconds)
    {
        double v = cap.voltage();
        double in_amps;
        if (flatSource) {
            // Inlined TheveninHarvester::currentInto — identical
            // expression, including the ternary's signed-zero
            // behaviour.
            double i = (flatVoc - v) / flatRsrc;
            in_amps = i > 0.0 ? i : 0.0;
        } else {
            in_amps = harvester->currentInto(v, t_seconds);
        }
        if (noiseEnabled && in_amps > 0.0) {
            double n = 1.0 + sim().rng().gaussian(cfg.harvestNoiseSigma);
            in_amps *= n < 0.0 ? 0.0 : n;
        }
        for (const auto &src : sources) {
            if (src.enabled)
                in_amps += src.fn(v, t_seconds);
        }
        double out_amps = powered ? totalLoadAmps() : cfg.offLeakageAmps;
        double dq_in = in_amps * dt_seconds;
        double dq_out = out_amps * dt_seconds;
        chargeIn += dq_in;
        chargeOut += dq_out;
        cap.addCharge(dq_in - dq_out);
        if (cap.voltage() > cfg.maxVolts)
            cap.setVoltage(cfg.maxVolts);
    }

    void
    updateComparator()
    {
        bool next = powered;
        if (powered && cap.voltage() < cfg.brownOutVolts) {
            next = false;
            ++brownOuts;
        } else if (!powered && cap.voltage() >= cfg.turnOnVolts) {
            next = true;
            ++boots;
        }
        if (next == powered)
            return;
        powered = next;
        for (const auto &listener : listeners)
            listener(powered);
    }

    void tick();
    void
    invalidateLoadSum()
    {
        loadSumValid = false;
        ++drawEpoch_;
    }

    /** Re-probe the harvester for the inlineable constant-Thevenin
     *  form (fastIntegration only; the arithmetic is identical). */
    void
    refreshFlatSource()
    {
        flatSource = cfg.fastIntegration && harvester &&
                     harvester->theveninParams(flatVoc, flatRsrc);
    }

    PowerSystemConfig cfg;
    const Harvester *harvester;
    Capacitor cap;
    std::vector<Load> loads;
    std::vector<Source> sources;
    std::vector<PowerListener> listeners;
    sim::Tick lastUpdate = 0;
    bool powered = false;
    bool integrating = false;
    bool started = false;
    /** Cached sum of enabled load currents (fastIntegration). */
    mutable double loadSum = 0.0;
    mutable bool loadSumValid = false;
    /** See drawEpoch(); starts above any block's zero stamp. */
    std::uint64_t drawEpoch_ = 1;
    /** secondsFromTicks(cfg.maxStep), hoisted out of advanceTo. */
    double maxStepSeconds = 0.0;
    bool noiseEnabled = false;
    /** Harvester devirtualization (see refreshFlatSource). */
    bool flatSource = false;
    double flatVoc = 0.0;
    double flatRsrc = 1.0;
    double chargeIn = 0.0;
    double chargeOut = 0.0;
    std::uint64_t boots = 0;
    std::uint64_t brownOuts = 0;
    /** Pending self-tick (id + absolute due time, for snapshots). */
    sim::EventId tickEvent = sim::invalidEventId;
    sim::Tick tickDueAt = 0;
};

} // namespace edb::energy

#endif // EDB_ENERGY_POWER_SYSTEM_HH
