/**
 * @file
 * The EH32 MCU core: interpreter, power behaviour, checkpoint unit.
 *
 * This is the execution substrate for the intermittent model of the
 * paper (Section 2): the core draws supply current per cycle while
 * running; when the power system browns out, the core stops wherever
 * it happens to be (losing the in-flight instruction), volatile state
 * is destroyed, and the next turn-on reboots from the entry point —
 * or from a hardware checkpoint when the Mementos/QuickRecall-style
 * checkpoint unit is enabled.
 */

#ifndef EDB_MCU_MCU_HH
#define EDB_MCU_MCU_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "energy/power_system.hh"
#include "isa/isa.hh"
#include "isa/program.hh"
#include "mem/memory.hh"
#include "sim/simulator.hh"
#include "sim/time_cursor.hh"

namespace edb::mem {
class NvAuditor;
class NvRegion;
} // namespace edb::mem

namespace edb::sim {
class FaultInjector;
class SnapshotWriter;
class SnapshotReader;
class EventRearmer;
} // namespace edb::sim

namespace edb::mcu {

/**
 * Checkpoint commit discipline of the hardware checkpoint unit
 * (DESIGN.md §11). All three double-buffer between the two slots;
 * they differ in *when* a slot becomes eligible for restore relative
 * to its payload writes — which is exactly what decides whether a
 * torn commit can surface as a hybrid state after reboot.
 */
enum class CommitDiscipline : std::uint8_t
{
    /** Payload first, sequence number last (the seed behaviour).
     *  A torn commit leaves the victim slot with its old sequence
     *  number, so restores fall through to the other slot — but
     *  nothing *verifies* the restored frame. */
    SeqLast,
    /** Claim the slot first (magic + sequence number), then write
     *  the payload. A torn commit leaves the newest sequence number
     *  on a half-written frame: the restore scan picks it and resumes
     *  a hybrid state. Exists to give the fault model teeth. */
    Naive,
    /** Payload, then a CRC seal binding payload to sequence number,
     *  then the sequence number. The boot-time recovery scan restores
     *  the newest frame whose seal verifies and falls back to the
     *  previous sealed frame when the newest is torn. */
    Sealed,
};

/** Static configuration of the MCU core. */
struct McuConfig
{
    /** Core clock (WISP 5 runs its MSP430 around 4 MHz). */
    double clockHz = 4e6;
    /** Supply current while executing (paper: ~0.5 mA at 4 MHz). */
    double activeAmps = 0.5e-3;
    /** Supply current when halted (deep sleep). */
    double haltAmps = 50e-6;
    /** Supply current during a timed low-power wait (LPM sleep). */
    double sleepAmps = 2e-6;
    /** Extra cycles for any data-memory access. */
    unsigned memExtraCycles = 1;
    /** Additional wait-state cycles for FRAM writes. */
    unsigned framWriteExtraCycles = 2;
    /** Cycles consumed entering the debug interrupt handler. */
    unsigned irqEntryCycles = 6;
    /** Reset / power-management settle time after turn-on. */
    sim::Tick bootDelay = 100 * sim::oneUs;
    /** Max instructions-slice length per event. */
    sim::Tick sliceQuantum = 100 * sim::oneUs;

    /// @name Fast-path execution (default on)
    /// Each mechanism is bit-identical to the reference path — same
    /// instruction stream, same power sub-step sequence, same RNG
    /// draws. The flags exist so the determinism suite can diff the
    /// fast and reference paths instruction-for-instruction.
    /// @{
    /** Predecoded instruction cache indexed by PC: decode each code
     *  word once, invalidated on writes into the cached range and on
     *  loadProgram / brown-out. */
    bool predecodeCache = true;
    /** Last-hit region cache in the memory map (flat dispatch). */
    bool flatDispatch = true;
    /** Drain per-instruction energy through the single-sub-step
     *  PowerSystem::drainStep entry instead of the general
     *  advanceTo path. */
    bool batchedDrain = true;
    /** Amortize the event-queue peek over slice segments: re-read
     *  sim().nextEventTime() only after an instruction that could
     *  have scheduled an event (MMIO access, tracer). */
    bool batchedSlices = true;
    /** Superblock tier on top of the predecode cache: compile hot
     *  straight-line runs (bounded by branches, barriers and the
     *  block length cap) into threaded-code blocks, execute their
     *  thunks back to back and drain the whole block's energy with
     *  one batched PowerSystem::drainBlock call. Only engages when
     *  predecodeCache, batchedDrain and batchedSlices are also on;
     *  falls back to per-instruction stepping whenever the
     *  brown-out pre-check cannot rule out a mid-block power loss.
     *  Bit-identical to the reference interpreter. */
    bool superblocks = true;
    /// @}

    /** Hardware checkpoint unit enable (restore-on-boot). */
    bool checkpointingEnabled = false;
    /** FRAM base of the two checkpoint slots. */
    mem::Addr checkpointBase = 0xE000;
    /** Bytes per checkpoint slot (two slots used). */
    mem::Addr checkpointSlotSize = 0x800;
    /** Initial stack pointer / top bound of checkpointed stack. */
    mem::Addr stackTop = 0x4000;
    /** Commit protocol of the checkpoint unit (DESIGN.md §11). */
    CommitDiscipline commitDiscipline = CommitDiscipline::SeqLast;
    /**
     * Interruptible commit: drain each commit word's write energy
     * individually, so a brown-out (natural or injected) can land
     * *inside* the FRAM write burst and tear it — prefix committed,
     * suffix old. Off by default: the seed model drains the whole
     * checkpoint cost atomically before the burst, which makes
     * mid-commit tears unrepresentable.
     */
    bool interruptibleCommit = false;
};

/** Lifecycle state of the core. */
enum class McuState : std::uint8_t
{
    Off,     ///< Below brown-out; no execution.
    Booting, ///< Powered, waiting out the reset delay.
    Running, ///< Executing instructions.
    Halted,  ///< HALT executed; low-power until reboot.
    Faulted, ///< Undefined behaviour hit; dead until reboot.
};

/** Cause of a fault. */
enum class McuFault : std::uint8_t
{
    None,
    IllegalInstr, ///< Undecodable opcode reached.
    BusError,     ///< Access to an unmapped address (wild pointer).
    Misaligned,   ///< Unaligned word access.
};

/** Human-readable state / fault names. */
const char *mcuStateName(McuState state);
const char *mcuFaultName(McuFault fault);

/**
 * EH32 interpreter bound to a memory map and a power system.
 */
class Mcu : public sim::Component
{
  public:
    /** Reset hook: invoked on every reboot (peripheral reset). */
    using ResetHook = std::function<void()>;
    /** Instruction tracer: (pc, decoded instruction). */
    using Tracer = std::function<void(mem::Addr, const isa::Instr &)>;

    Mcu(sim::Simulator &simulator, std::string component_name,
        sim::TimeCursor &cursor, mem::MemoryMap &memory,
        energy::PowerSystem &power, McuConfig config = {});

    ~Mcu() override;

    /// @name Program loading
    /// @{
    /** Flash a program image into memory and set vectors. */
    void loadProgram(const isa::Program &program);
    void setEntry(mem::Addr addr) { entry = addr; }
    void setIrqHandler(mem::Addr addr) { irqHandler = addr; }
    mem::Addr entryPoint() const { return entry; }
    /// @}

    /// @name Core state
    /// @{
    McuState state() const { return state_; }
    McuFault fault() const { return fault_; }
    mem::Addr pc() const { return pc_; }
    std::uint32_t reg(unsigned index) const { return regs.at(index); }
    void setReg(unsigned index, std::uint32_t v) { regs.at(index) = v; }
    const isa::Flags &flags() const { return flags_; }
    /// @}

    /// @name Statistics
    /// @{
    std::uint64_t cycleCount() const { return cycles; }
    std::uint64_t instrCount() const { return instrs; }
    std::uint64_t rebootCount() const { return reboots; }
    std::uint64_t faultCount() const { return faults; }
    std::uint64_t checkpointCount() const { return checkpointsTaken; }
    std::uint64_t restoreCount() const { return checkpointsRestored; }
    /// @}

    /// @name Debug interrupt (EDB's "Interrupt" line, paper Fig 5)
    /// @{
    void raiseDebugIrq() { irqLine = true; }
    void clearDebugIrq() { irqLine = false; }
    bool inDebugIrq() const { return inIrq; }
    /// @}

    /** Peripheral/board reset hook called on each reboot. */
    void setResetHook(ResetHook hook) { resetHook = std::move(hook); }

    /**
     * Instruction tracers: a subscriber list keyed by `owner`. Every
     * tracer sees every retired instruction, so while the list is
     * non-empty the core steps instruction by instruction (no
     * superblocks). `addTracer` replaces `owner`'s earlier tracer, so
     * re-subscribing never double-fires; `removeTracer` is a no-op
     * for an owner not subscribed. Neither may be called from inside
     * a tracer.
     */
    void addTracer(const void *owner, Tracer t);
    void removeTracer(const void *owner);

    /**
     * The NV consistency auditor driven by this core (nullptr
     * detaches); attach through `target::Wisp::attachAuditor`, which
     * also routes the memory map's writes to it. Like a tracer, an
     * attached auditor forces per-instruction stepping.
     */
    void setAuditor(mem::NvAuditor *auditor) { audit_ = auditor; }

    /**
     * Attach the NV region hosting the checkpoint slots (nullptr
     * detaches). The commit unit drives its burst latch / commit-slot
     * selector, and an *active* region (energy/wear modelling on)
     * disables the superblock tier so batched execution never skips
     * the per-write energy accounting.
     */
    void setNvRegion(mem::NvRegion *region);
    mem::NvRegion *nvRegion() const { return nv_; }

    /**
     * Fault injector of the interruptible commit path (nullptr
     * detaches), attached by `target::Wisp::attachFaults`: it sees
     * each commit word before the word's energy drain and decides
     * the fate of the in-flight word when the burst tears.
     */
    void setNvFaults(sim::FaultInjector *fault) { nvFault_ = fault; }

    /** Commits that ended torn (power lost mid-burst). */
    std::uint64_t tornCommitCount() const { return tornCommits_; }

    /// @name Snapshot support (see sim/snapshot.hh)
    /// @{
    void saveState(sim::SnapshotWriter &w) const;
    void restoreState(sim::SnapshotReader &r,
                      sim::EventRearmer &rearmer);
    /// @}

    /** Live checkpoint-unit enable (also via MMIO chkptCtl). */
    void setCheckpointingEnabled(bool on) { chkptEnabled = on; }
    bool checkpointingEnabled() const { return chkptEnabled; }

    /** True while in a timed low-power wait (see mmio::sleep). */
    bool sleeping() const { return sleepCycles > 0; }

    /** Zero out both checkpoint slots (done at program load). */
    void invalidateCheckpoints();

    /** Install the cycle counter and checkpoint-control registers. */
    void installMmio(mem::MmioRegion &mmio);

    /// @name Instrument access (not the debugger protocol path)
    /// @{
    std::uint32_t debugRead32(mem::Addr addr) const;
    void debugWrite32(mem::Addr addr, std::uint32_t value);
    /// @}

    const McuConfig &config() const { return cfg; }

    /** Tick duration of one core clock cycle. */
    sim::Tick cyclePeriod() const { return cyclePeriod_; }

    /// @name Static-analysis cost quotes (analysis/cost_model.hh)
    /// The energy analyzer's per-instruction cost table is extracted
    /// through these instead of re-deriving the cost rules, so the
    /// table can never drift from what the interpreter charges: both
    /// paths share classifyCost / the checkpoint cost formula.
    /// @{
    struct CostQuote
    {
        /** Cycles charged when no dynamic surcharge applies (already
         *  includes memExtraCycles for memory-touching opcodes). */
        unsigned cycles = 0;
        /** Extra cycles when a store's effective address lands in
         *  FRAM; zero for every non-store opcode. */
        unsigned framExtraCycles = 0;
        /** CHKPT with the checkpoint unit enabled: the cost is a
         *  function of live stack depth — use
         *  checkpointCostCyclesFor, not `cycles`. */
        bool stackDependent = false;
    };
    /** Decode-time cost of `op`, exactly as step() would charge it. */
    CostQuote costQuote(isa::Opcode op) const;
    /**
     * Commit cost of an (atomic) CHKPT for a given stack depth, in
     * cycles: the same formula checkpointCostCycles() applies to the
     * live stack pointer. Under interruptible commit the interpreter
     * charges baseCycles(Chkpt) up front and the same per-word total
     * during the burst, so this is the commit-burst cost either way.
     */
    unsigned checkpointCostCyclesFor(std::uint32_t stack_bytes) const;
    /// @}

    /** Longest superblock, in instructions (and the span of the
     *  block-length statistics). */
    static constexpr unsigned superblockLenCap = 32;

    /** Superblock engine counters (not architectural state; they are
     *  neither snapshotted nor part of the determinism digest). */
    struct SuperblockStats
    {
        /** Blocks compiled, first builds and rebuilds together. */
        std::uint64_t blocksBuilt = 0;
        /** Rebuilds forced by a code-epoch bump (self-modifying
         *  store, brown-out poison, snapshot restore). */
        std::uint64_t rebuilds = 0;
        /** Block dispatches that retired at least one instruction. */
        std::uint64_t execs = 0;
        /** Instructions retired inside blocks (the hit-rate
         *  numerator; instrCount() is the denominator). */
        std::uint64_t blockInstrs = 0;
        /** Dispatches that exited early (MMIO operand, faulting
         *  access, or a store over live code). */
        std::uint64_t bailouts = 0;
        /** Dispatches rejected by the segment-fit or brown-out
         *  admissibility gates (fell back to step()). */
        std::uint64_t fallbacks = 0;
        /** Dispatch counts by retired block length. */
        std::array<std::uint64_t, superblockLenCap + 1> lengthCounts{};
    };

    const SuperblockStats &superblockStats() const { return sbStats_; }

    /** Monotonic code-cache generation; bumped by the write watch
     *  when a store lands on live predecoded code and by
     *  invalidateCodeCaches(). Exposed for tests. */
    std::uint64_t codeEpoch() const { return codeEpoch_; }

  private:
    /** Snapshot field list (DESIGN.md section 8.1). */
    template <class Ar> void fields(Ar &a);

    /** Predecoded-instruction classes: how much of the cycle cost
     *  can be precomputed at decode time. */
    enum class InstrClass : std::uint8_t
    {
        Static, ///< Cost fully known at decode time.
        Store,  ///< STW/STB: +framWriteExtraCycles when EA is FRAM.
        Chkpt,  ///< CHKPT: cost depends on live stack depth.
    };

    /** One slot of the predecoded instruction cache. */
    struct CachedInstr
    {
        isa::Instr instr;
        /** Static cycle cost (includes memExtraCycles). */
        std::uint32_t cycles = 0;
        /** secondsFromTicks(cycles * cyclePeriod_), precomputed. */
        double dtSeconds = 0.0;
        InstrClass cls = InstrClass::Static;
    };

    /** One pre-resolved operation thunk of a superblock. */
    struct SbOp
    {
        isa::Instr instr;
        /** Static cycle cost (the non-FRAM cost for stores). */
        std::uint32_t cyc = 0;
        /** Store cost when the EA lands in FRAM; == cyc otherwise. */
        std::uint32_t framCyc = 0;
        /** Drain sub-step at `cyc` / at `framCyc`. */
        energy::PowerSystem::DrainStep step{};
        energy::PowerSystem::DrainStep framStep{};
    };

    /** A compiled straight-line region: thunks plus its precomputed
     *  worst-case drain schedule. Purely an execution-cache artifact;
     *  never snapshotted. */
    struct Superblock
    {
        mem::Addr base = 0;
        /** codeEpoch_ at (re)build time; stale => rebuild. */
        std::uint64_t epoch = 0;
        /** Upper bound on the block's total drain duration (every
         *  store charged its FRAM cost). */
        sim::Tick worstDt = 0;
        double worstSeconds = 0.0;
        /** Cached admission threshold for `worstSeconds` and the
         *  draw-epoch it was computed under (0 = never computed). */
        double admitVolts = 0.0;
        std::uint64_t drawStamp = 0;
        /** Consecutive dispatches that retired zero instructions;
         *  reset by any retiring dispatch. At sbZeroBailDemoteLimit
         *  the entry point is demoted to unbuildable (see
         *  tryRunBlock). */
        std::uint32_t zeroBails = 0;
        std::vector<SbOp> ops;
    };

    /** blockAt_ sentinels. */
    static constexpr std::int32_t sbNone = -1;
    static constexpr std::int32_t sbUnbuildable = -2;
    /** Consecutive zero-retire dispatches before an entry point is
     *  demoted to unbuildable (a leader whose effective address
     *  always resolves to MMIO makes every dispatch pure overhead).
     *  invalidateCodeCaches resets the verdict with the rest. */
    static constexpr std::uint32_t sbZeroBailDemoteLimit = 16;
    /** Total block budget (leaders are at most one per code word;
     *  this just bounds pathological self-modifying workloads). */
    static constexpr std::size_t sbMaxBlocks = 4096;

    void onPowerChange(bool on);
    void boot();
    void runSlice();
    /** Execute one instruction at local time `t`; advances `t`.
     *  @return false when the slice must end (power loss, halt,
     *  fault). */
    bool step(sim::Tick &t);
    /** Lazily size the predecode cache from the memory map and
     *  install the write watch that keeps it coherent. */
    void icacheEnsure();
    /** Drop every predecoded instruction (loadProgram, brown-out). */
    void icacheInvalidateAll();
    /** The one invalidation entry point shared by both decode tiers:
     *  drops every predecoded word and bumps the code epoch, which
     *  lazily invalidates every superblock. */
    void invalidateCodeCaches();
    /** Decode-time costing shared by step()'s fill path and the
     *  block builder. */
    void classifyCost(isa::Opcode op, unsigned &cyc,
                      InstrClass &cls) const;
    /** Superblock dispatch: build/validate/admit the block at pc_
     *  and run it. @return true when >= 1 instruction retired. */
    bool tryRunBlock(sim::Tick &t, sim::Tick seg_end);
    std::int32_t buildBlockAt(mem::Addr pc, std::size_t idx);
    bool buildInto(Superblock &b, mem::Addr pc);
    bool runBlock(sim::Tick &t, Superblock &b, std::size_t n_max);
    bool
    touchesMmio(mem::Addr ea) const
    {
        for (const auto &[mbase, mspan] : mmioRanges_) {
            if (ea - mbase < mspan)
                return true;
        }
        return false;
    }
    bool
    eaInFram(mem::Addr ea) const
    {
        for (const auto &[fbase, fspan] : framRanges_) {
            if (ea - fbase < fspan)
                return true;
        }
        return false;
    }
    void execute(const isa::Instr &instr, sim::Tick t);
    /** Feed the auditor's taint machine; runs on the pre-execute
     *  register file so effective addresses match the instruction
     *  about to commit. */
    void auditExec(const isa::Instr &instr);
    void raiseFault(McuFault cause);
    void enterIrq();
    void setFlagsFromCompare(std::uint32_t a, std::uint32_t b);

    bool doCheckpoint();
    /** Atomic commit: every word lands (pre-drained cost). */
    bool commitAtomic(mem::Addr base, std::uint32_t sp,
                      std::uint32_t stack_bytes,
                      std::uint32_t next_seq);
    /** Interruptible commit: per-word energy drain; can tear. */
    bool commitInterruptible(mem::Addr base, std::uint32_t sp,
                             std::uint32_t stack_bytes,
                             std::uint32_t next_seq);
    bool tryRestore();
    /** Does the frame in `slot` carry a valid seal? (Sealed scan.) */
    bool slotSealed(int slot, std::uint32_t &seq_out) const;
    /** CRC of the frame at `base` (runtime::ckfmt::frameCrc). */
    std::uint32_t frameCrcAt(mem::Addr base,
                             std::uint32_t stack_bytes,
                             std::uint32_t seq) const;
    unsigned checkpointCostCycles() const;

    /// Memory helpers that fault on error; return false on fault.
    bool memRead32(mem::Addr addr, std::uint32_t &value);
    bool memWrite32(mem::Addr addr, std::uint32_t value);
    bool memRead8(mem::Addr addr, std::uint8_t &value);
    bool memWrite8(mem::Addr addr, std::uint8_t value);

    sim::TimeCursor &cursor;
    mem::MemoryMap &mem_;
    energy::PowerSystem &power;
    McuConfig cfg;
    sim::Tick cyclePeriod_;

    energy::PowerSystem::LoadHandle coreLoad;

    std::array<std::uint32_t, isa::numRegs> regs{};
    mem::Addr pc_ = 0;
    isa::Flags flags_;
    McuState state_ = McuState::Off;
    McuFault fault_ = McuFault::None;
    mem::Addr entry = 0x4000;
    mem::Addr irqHandler = 0;

    bool irqLine = false;
    bool inIrq = false;
    bool chkptEnabled = false;
    /** Remaining cycles of a timed low-power wait (0 = awake). */
    std::uint64_t sleepCycles = 0;

    sim::EventId sliceEvent = sim::invalidEventId;
    sim::EventId bootEvent = sim::invalidEventId;
    /** Due times of the pending events (snapshot save). */
    sim::Tick sliceDueAt = 0;
    sim::Tick bootDueAt = 0;

    mem::NvAuditor *audit_ = nullptr;
    mem::NvRegion *nv_ = nullptr;
    sim::FaultInjector *nvFault_ = nullptr;
    /** Ticks spent inside the current interruptible commit, folded
     *  back into the slice clock by step() after execute(). */
    sim::Tick commitExtraTicks_ = 0;
    std::uint64_t tornCommits_ = 0;

    /** Predecoded instruction cache, indexed by (pc - icacheBase)/4.
     *  Validity lives in a separate byte vector so wholesale
     *  invalidation is a cheap fill. */
    std::vector<CachedInstr> icache_;
    std::vector<std::uint8_t> icacheValid_;
    mem::Addr icacheBase_ = 0;
    bool icacheReady_ = false;
    /** (base, span) of each FRAM region, snapshotted with the icache
     *  so store costing can skip the memory-map lookup. */
    std::vector<std::pair<mem::Addr, mem::Addr>> framRanges_;
    /** (base, span) of each MMIO region: block thunks bail *before*
     *  any access that would land here. */
    std::vector<std::pair<mem::Addr, mem::Addr>> mmioRanges_;
    /** Cached power integration sub-step ceiling. */
    sim::Tick powerMaxStep_ = 0;

    /** Superblock cache: per-leader-word index into blocks_ (or a
     *  sentinel), parallel to icache_. */
    std::vector<std::int32_t> blockAt_;
    std::vector<Superblock> blocks_;
    /** Code-cache generation. The memory map's write watch holds a
     *  pointer to this and bumps it whenever a routed store clears a
     *  live valid byte — the same event that invalidates a
     *  predecoded word, so both tiers ride one mechanism. Starts at
     *  1 so a default-constructed Superblock (epoch 0) is stale. */
    std::uint64_t codeEpoch_ = 1;
    /** All non-reference fast-path flags required by the block tier,
     *  resolved once at construction. */
    bool sbEnabled_ = false;
    /** Worst-case duration of a full-length block, for the gate that
     *  stops block *building* near the brown-out threshold. */
    double sbBuildGateSeconds_ = 0.0;
    SuperblockStats sbStats_;

    ResetHook resetHook;
    std::vector<std::pair<const void *, Tracer>> tracers_;

    std::uint64_t cycles = 0;
    std::uint64_t instrs = 0;
    std::uint64_t reboots = 0;
    std::uint64_t faults = 0;
    std::uint64_t checkpointsTaken = 0;
    std::uint64_t checkpointsRestored = 0;
};

} // namespace edb::mcu

#endif // EDB_MCU_MCU_HH
