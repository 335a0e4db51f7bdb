#include "mcu/mcu.hh"

#include <algorithm>

#include "mcu/mmio_map.hh"
#include "mem/nv_audit.hh"
#include "mem/nv_region.hh"
#include "runtime/checkpoint.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace edb::mcu {

namespace {

/** Checkpoint slot field offsets (bytes); the canonical frame format
 *  lives in runtime/checkpoint.hh and is shared with the auditor and
 *  the tests. */
constexpr mem::Addr ckMagicOff = runtime::ckfmt::magicOff;
constexpr mem::Addr ckSeqOff = runtime::ckfmt::seqOff;
constexpr mem::Addr ckPcOff = runtime::ckfmt::pcOff;
constexpr mem::Addr ckFlagsOff = runtime::ckfmt::flagsOff;
constexpr mem::Addr ckSpOff = runtime::ckfmt::spOff;
constexpr mem::Addr ckStackLenOff = runtime::ckfmt::stackLenOff;
constexpr mem::Addr ckRegsOff = runtime::ckfmt::regsOff;
constexpr mem::Addr ckStackOff = runtime::ckfmt::stackOff;
constexpr std::uint32_t ckMagic = runtime::ckfmt::magic;

/** Longest superblock compiled, in instructions. */
constexpr unsigned superblockMaxLen = Mcu::superblockLenCap;
/** Blocks shorter than this are not worth registering. */
constexpr unsigned superblockMinLen = 3;

} // namespace

const char *
mcuStateName(McuState state)
{
    switch (state) {
      case McuState::Off: return "off";
      case McuState::Booting: return "booting";
      case McuState::Running: return "running";
      case McuState::Halted: return "halted";
      case McuState::Faulted: return "faulted";
    }
    return "unknown";
}

const char *
mcuFaultName(McuFault fault)
{
    switch (fault) {
      case McuFault::None: return "none";
      case McuFault::IllegalInstr: return "illegal-instruction";
      case McuFault::BusError: return "bus-error";
      case McuFault::Misaligned: return "misaligned";
    }
    return "unknown";
}

Mcu::Mcu(sim::Simulator &simulator, std::string component_name,
         sim::TimeCursor &time_cursor, mem::MemoryMap &memory,
         energy::PowerSystem &power_sys, McuConfig config)
    : sim::Component(simulator, std::move(component_name)),
      cursor(time_cursor),
      mem_(memory),
      power(power_sys),
      cfg(config)
{
    cyclePeriod_ = sim::ticksFromSeconds(1.0 / cfg.clockHz);
    chkptEnabled = cfg.checkpointingEnabled;
    coreLoad = power.addLoad(name() + ".core", cfg.activeAmps, false);
    power.addPowerListener([this](bool on) { onPowerChange(on); });
    powerMaxStep_ = power.config().maxStep;
    mem_.setFindCacheEnabled(cfg.flatDispatch);
    // The block tier leans on all three underlying fast paths: the
    // predecode cache (decode + costing + the write watch), batched
    // drain (aligned lastUpdate ticks) and batched slices (the
    // segment bounds that cap a block's drain horizon).
    sbEnabled_ = cfg.superblocks && cfg.predecodeCache &&
                 cfg.batchedDrain && cfg.batchedSlices;
    // Build-gate horizon: a full-length block of worst-typical (4
    // cycle) instructions. Heuristic only — dispatch admissibility
    // always uses the candidate block's exact worst case.
    sbBuildGateSeconds_ = sim::secondsFromTicks(
        static_cast<sim::Tick>(superblockMaxLen) * 4 *
        cyclePeriod_);
}

Mcu::~Mcu()
{
    // The write watch closes over `this`; drop it before the map can
    // outlive the core.
    if (icacheReady_)
        mem_.clearWriteWatch();
}

void
Mcu::installMmio(mem::MmioRegion &mmio)
{
    mmio.addRegister(
        mmio::cycleLo, name() + ".cycleLo",
        [this] { return static_cast<std::uint32_t>(cycles); }, nullptr);
    mmio.addRegister(
        mmio::cycleHi, name() + ".cycleHi",
        [this] { return static_cast<std::uint32_t>(cycles >> 32); },
        nullptr);
    mmio.addRegister(
        mmio::chkptCtl, name() + ".chkptCtl",
        [this] { return chkptEnabled ? 1u : 0u; },
        [this](std::uint32_t v) { chkptEnabled = v & 1u; });
    mmio.addRegister(
        mmio::sleep, name() + ".sleep",
        [this] {
            return static_cast<std::uint32_t>(sleepCycles);
        },
        [this](std::uint32_t v) {
            sleepCycles = v;
            if (sleepCycles > 0)
                power.setLoadCurrent(coreLoad, cfg.sleepAmps);
        });
}

void
Mcu::loadProgram(const isa::Program &program)
{
    // Bulk-copy each segment straight into the backing store of the
    // region(s) it lands in. Flashing is not a program store: it
    // must neither pollute the wear statistics nor cost O(bytes)
    // routed byte writes.
    for (const auto &seg : program.segments) {
        std::size_t off = 0;
        while (off < seg.bytes.size()) {
            mem::Addr addr = seg.base + static_cast<mem::Addr>(off);
            mem::Region *region = mem_.find(addr);
            if (!region) {
                sim::fatal("Mcu::loadProgram: address ", addr,
                           " is not mapped");
            }
            std::size_t room = region->base() + region->size() - addr;
            std::size_t chunk =
                std::min(seg.bytes.size() - off, room);
            if (auto *ram = dynamic_cast<mem::Ram *>(region)) {
                ram->load(addr, seg.bytes.data() + off, chunk);
            } else {
                for (std::size_t i = 0; i < chunk; ++i)
                    mem_.write8(addr + static_cast<mem::Addr>(i),
                                seg.bytes[off + i]);
            }
            off += chunk;
        }
    }
    entry = program.entry;
    irqHandler = program.irqHandler;
    chkptEnabled = cfg.checkpointingEnabled;
    invalidateCodeCaches();
    invalidateCheckpoints();
    if (audit_)
        audit_->reset();
}

void
Mcu::icacheEnsure()
{
    icacheReady_ = true;
    mem::Addr lo = ~mem::Addr{0};
    mem::Addr hi = 0;
    framRanges_.clear();
    mmioRanges_.clear();
    for (auto *region : mem_.regions()) {
        if (region->kind() == mem::RegionKind::Fram)
            framRanges_.emplace_back(region->base(), region->size());
        if (region->kind() == mem::RegionKind::Mmio) {
            mmioRanges_.emplace_back(region->base(), region->size());
            continue;
        }
        lo = std::min(lo, region->base());
        hi = std::max(hi, region->base() + region->size());
    }
    if (lo >= hi) {
        icache_.clear();
        icacheValid_.clear();
        blockAt_.clear();
        blocks_.clear();
        return;
    }
    lo &= ~mem::Addr{3};
    icacheBase_ = lo;
    icache_.assign((hi - lo) / 4, {});
    icacheValid_.assign(icache_.size(), 0);
    blockAt_.assign(icache_.size(), sbNone);
    blocks_.clear();
    // Any routed store into the cached span drops the covering word
    // (the map clears the valid byte directly) and, when that word
    // was live predecoded state, bumps the code epoch that keys the
    // superblock cache. Bulk mutations that bypass the map
    // (Ram::load, SRAM poison) are handled by the explicit
    // invalidateCodeCaches calls in loadProgram and onPowerChange.
    mem_.setWriteWatch(lo, hi, icacheValid_.data(), &codeEpoch_);
}

void
Mcu::icacheInvalidateAll()
{
    if (!icacheValid_.empty())
        std::fill(icacheValid_.begin(), icacheValid_.end(),
                  std::uint8_t{0});
}

void
Mcu::invalidateCodeCaches()
{
    // Both decode tiers invalidate through this one helper: the
    // predecode cache by clearing every valid byte, the superblocks
    // lazily by the epoch bump (each block re-verifies its epoch at
    // dispatch and recompiles from current memory when stale).
    icacheInvalidateAll();
    ++codeEpoch_;
    // "Unbuildable" leader verdicts were reached against the old
    // code image; give those words a fresh chance.
    if (!blockAt_.empty())
        std::replace(blockAt_.begin(), blockAt_.end(), sbUnbuildable,
                     sbNone);
}

void
Mcu::classifyCost(isa::Opcode op, unsigned &cyc, InstrClass &cls) const
{
    cyc = isa::baseCycles(op);
    cls = InstrClass::Static;
    switch (op) {
      case isa::Opcode::Ldw:
      case isa::Opcode::Ldb:
      case isa::Opcode::Push:
      case isa::Opcode::Pop:
      case isa::Opcode::Call:
      case isa::Opcode::Callr:
      case isa::Opcode::Ret:
      case isa::Opcode::Reti:
        cyc += cfg.memExtraCycles;
        break;
      case isa::Opcode::Stw:
      case isa::Opcode::Stb:
        cyc += cfg.memExtraCycles;
        cls = InstrClass::Store;
        break;
      case isa::Opcode::Chkpt:
        cls = InstrClass::Chkpt;
        break;
      default:
        break;
    }
}

void
Mcu::invalidateCheckpoints()
{
    for (int slot = 0; slot < 2; ++slot) {
        mem::Addr base =
            cfg.checkpointBase + slot * cfg.checkpointSlotSize;
        mem_.write32(base + ckMagicOff, 0);
        mem_.write32(base + ckSeqOff, 0);
    }
}

void
Mcu::addTracer(const void *owner, Tracer t)
{
    removeTracer(owner);
    tracers_.emplace_back(owner, std::move(t));
}

void
Mcu::removeTracer(const void *owner)
{
    std::erase_if(tracers_,
                  [owner](const auto &sub) { return sub.first == owner; });
}

void
Mcu::setNvRegion(mem::NvRegion *region)
{
    nv_ = region;
    if (nv_ && nv_->active()) {
        // Batched block execution skips per-write hooks; an active NV
        // backend (energy/wear modelling) must see every write, so
        // force the per-instruction path. (With the code region's
        // direct store unpublished, blocks could never build anyway.)
        sbEnabled_ = false;
    }
}

void
Mcu::onPowerChange(bool on)
{
    if (on) {
        state_ = McuState::Booting;
        power.setLoadCurrent(coreLoad, cfg.activeAmps);
        power.setLoadEnabled(coreLoad, true);
        bootDueAt = cursor.now() + cfg.bootDelay;
        bootEvent = cursor.scheduleIn(cfg.bootDelay, [this] { boot(); });
        return;
    }
    // Brown-out: volatile state is lost; the board reset hook poisons
    // SRAM and resets peripherals.
    if (audit_ && state_ != McuState::Off)
        audit_->onPowerLoss(cursor.now());
    state_ = McuState::Off;
    fault_ = McuFault::None;
    inIrq = false;
    sleepCycles = 0;
    if (sliceEvent != sim::invalidEventId) {
        sim().cancel(sliceEvent);
        sliceEvent = sim::invalidEventId;
    }
    if (bootEvent != sim::invalidEventId) {
        sim().cancel(bootEvent);
        bootEvent = sim::invalidEventId;
    }
    power.setLoadEnabled(coreLoad, false);
    // The reset hook poisons SRAM behind the map's back; any
    // predecoded instruction (and any superblock) may now be stale.
    invalidateCodeCaches();
    if (resetHook)
        resetHook();
}

void
Mcu::boot()
{
    bootEvent = sim::invalidEventId;
    if (state_ != McuState::Booting)
        return;
    regs.fill(0);
    flags_ = isa::Flags{};
    fault_ = McuFault::None;
    inIrq = false;
    sleepCycles = 0;
    regs[isa::regSp] = cfg.stackTop;
    pc_ = entry;
    state_ = McuState::Running;
    ++reboots;
    if (audit_)
        audit_->onBoot(cursor.now());
    power.setLoadCurrent(coreLoad, cfg.activeAmps);
    power.setLoadEnabled(coreLoad, true);
    if (chkptEnabled)
        tryRestore();
    sliceDueAt = cursor.now();
    sliceEvent = sim().schedule(sliceDueAt, [this] { runSlice(); });
}

void
Mcu::runSlice()
{
    sliceEvent = sim::invalidEventId;
    if (state_ != McuState::Running)
        return;
    sim::Tick t = std::max(now(), cursor.now());
    sim::Tick end = t + cfg.sliceQuantum;
    if (!cfg.batchedSlices) {
        // Reference path: peek the event queue before every
        // instruction.
        while (state_ == McuState::Running && t < end) {
            if (sim().nextEventTime() <= t)
                break;
            if (!step(t))
                break;
        }
    } else {
        // Segment-amortized path: the next-event time can only move
        // when an event is scheduled or cancelled, and during a
        // slice only MMIO-touching instructions, a tracer, or a
        // power transition (which ends the slice anyway) can do
        // that. So read it once per segment and re-read only after
        // such an instruction. Instruction-for-instruction identical
        // to the reference path.
        const bool traced = !tracers_.empty();
        // The superblock tier needs every per-instruction observer
        // quiet: a tracer or auditor must see each instruction, so
        // their presence drops execution to the step() path.
        const bool sb_ok = sbEnabled_ && !traced && !audit_;
        while (state_ == McuState::Running && t < end) {
            sim::Tick next_evt = sim().nextEventTime();
            if (next_evt <= t)
                break;
            const sim::Tick seg_end = std::min(end, next_evt);
            bool live = true;
            mem_.clearMmioTouched();
            while (state_ == McuState::Running && t < seg_end) {
                if (sb_ok && tryRunBlock(t, seg_end))
                    continue; // blocks never touch MMIO or events
                if (!step(t)) {
                    live = false;
                    break;
                }
                if (mem_.mmioTouched() || traced)
                    break; // resync with the event queue
            }
            if (!live)
                break;
        }
    }
    if (state_ == McuState::Running) {
        sliceDueAt = t;
        sliceEvent = sim().schedule(t, [this] { runSlice(); });
    }
}

bool
Mcu::step(sim::Tick &t)
{
    // Timed low-power wait: consume the remaining sleep budget in
    // bounded chunks (so queued events interleave at their proper
    // times) at the sleep current. A debug interrupt wakes early.
    if (sleepCycles > 0) {
        if (irqLine && irqHandler != 0) {
            sleepCycles = 0;
        } else {
            std::uint64_t chunk = std::min<std::uint64_t>(
                sleepCycles, 200); // 50 us at 4 MHz
            sim::Tick dt =
                static_cast<sim::Tick>(chunk) * cyclePeriod_;
            power.advanceTo(t + dt);
            if (state_ != McuState::Running)
                return false;
            cursor.advance(t + dt);
            cycles += chunk;
            t += dt;
            sleepCycles -= chunk;
        }
        if (sleepCycles == 0)
            power.setLoadCurrent(coreLoad, cfg.activeAmps);
        return true;
    }

    // Fetch: hit the predecode cache, else fetch + decode + classify
    // and (when the PC is cacheable) remember the result.
    const isa::Instr *ip = nullptr;
    unsigned cyc = 0;
    double dt_sec = 0.0;
    bool have_dt_sec = false;
    InstrClass cls = InstrClass::Static;
    std::size_t idx = 0;
    bool cacheable = false;
    if (cfg.predecodeCache) {
        if (!icacheReady_)
            icacheEnsure();
        if (!(pc_ & 3u) && pc_ >= icacheBase_) {
            idx = (pc_ - icacheBase_) >> 2;
            if (idx < icache_.size()) {
                cacheable = true;
                if (icacheValid_[idx]) {
                    const CachedInstr &entry = icache_[idx];
                    ip = &entry.instr;
                    cyc = entry.cycles;
                    cls = entry.cls;
                    dt_sec = entry.dtSeconds;
                    have_dt_sec = true;
                }
            }
        }
    }
    isa::Instr fetched;
    if (!ip) {
        std::uint32_t word;
        if (!memRead32(pc_, word))
            return false;
        auto decoded = isa::decode(word);
        if (!decoded) {
            raiseFault(McuFault::IllegalInstr);
            return false;
        }
        fetched = *decoded;
        ip = &fetched;
        classifyCost(fetched.op, cyc, cls);
        if (cacheable) {
            // Never cache instruction words read from MMIO: those
            // reads have side effects and must stay on the slow
            // path.
            mem::Region *region = mem_.find(pc_);
            if (region && region->kind() != mem::RegionKind::Mmio) {
                icache_[idx] = CachedInstr{
                    fetched, cyc,
                    sim::secondsFromTicks(
                        static_cast<sim::Tick>(cyc) * cyclePeriod_),
                    cls};
                icacheValid_[idx] = 1;
            }
        }
    }
    const isa::Instr &instr = *ip;

    // Dynamic cost components (same order of operations as the
    // reference cost switch).
    if (cls == InstrClass::Store) {
        mem::Addr ea = regs[instr.rs] +
                       static_cast<std::uint32_t>(instr.imm);
        bool fram = false;
        if (icacheReady_) {
            // Exact per-region ranges (gaps stay non-FRAM), so this
            // matches the map lookup for every address.
            for (const auto &[fbase, fspan] : framRanges_) {
                if (ea - fbase < fspan) {
                    fram = true;
                    break;
                }
            }
        } else {
            mem::Region *region = mem_.find(ea);
            fram = region && region->kind() == mem::RegionKind::Fram;
        }
        if (fram) {
            cyc += cfg.framWriteExtraCycles;
            have_dt_sec = false;
        }
    } else if (cls == InstrClass::Chkpt) {
        if (chkptEnabled && !cfg.interruptibleCommit) {
            // Atomic commit: the whole checkpoint cost is drained
            // before the burst, so the commit can never tear. The
            // interruptible path keeps the base cost here and drains
            // word by word inside doCheckpoint().
            cyc = checkpointCostCycles();
            have_dt_sec = false;
        }
    }

    // Drain the supply across the instruction; a brown-out mid
    // instruction kills it before it commits.
    sim::Tick dt = static_cast<sim::Tick>(cyc) * cyclePeriod_;
    if (cfg.batchedDrain && dt <= powerMaxStep_ &&
        power.lastUpdateTick() == t) {
        if (!have_dt_sec)
            dt_sec = sim::secondsFromTicks(dt);
        power.drainStep(dt, dt_sec);
    } else {
        power.advanceTo(t + dt);
    }
    if (state_ != McuState::Running)
        return false;
    cursor.advance(t + dt);
    cycles += cyc;
    ++instrs;
    for (const auto &[owner, trace] : tracers_)
        trace(pc_, instr);
    if (audit_)
        auditExec(instr);
    execute(instr, t + dt);
    t += dt;
    if (commitExtraTicks_ != 0) {
        // An interruptible checkpoint commit advanced the power
        // system and cursor word by word; fold its duration back
        // into the slice clock.
        t += commitExtraTicks_;
        commitExtraTicks_ = 0;
    }
    if (state_ != McuState::Running)
        return false;

    // Debug interrupt, taken at instruction boundaries.
    if (irqLine && !inIrq && irqHandler != 0) {
        sim::Tick idt =
            static_cast<sim::Tick>(cfg.irqEntryCycles) * cyclePeriod_;
        power.advanceTo(t + idt);
        if (state_ != McuState::Running)
            return false;
        cursor.advance(t + idt);
        cycles += cfg.irqEntryCycles;
        t += idt;
        enterIrq();
        if (state_ != McuState::Running)
            return false;
    }
    return true;
}

bool
Mcu::tryRunBlock(sim::Tick &t, sim::Tick seg_end)
{
    // Anything that makes the next instruction special — a pending
    // sleep, a raised debug IRQ, a power integrator that is not
    // aligned to `t` — drops to the step() path, which handles it
    // exactly like the reference interpreter.
    if (sleepCycles > 0 || irqLine || power.lastUpdateTick() != t)
        return false;
    if (!icacheReady_)
        icacheEnsure();
    if ((pc_ & 3u) || pc_ < icacheBase_)
        return false;
    const std::size_t idx = (pc_ - icacheBase_) >> 2;
    if (idx >= blockAt_.size())
        return false;
    std::int32_t bi = blockAt_[idx];
    if (bi == sbUnbuildable)
        return false;
    if (bi == sbNone) {
        // Anti-thrash gate: compiling right at the brown-out edge
        // would produce blocks that fail admission on every
        // dispatch until the power dies anyway.
        if (!power.blockDrainAdmissible(sbBuildGateSeconds_)) {
            ++sbStats_.fallbacks;
            return false;
        }
        bi = buildBlockAt(pc_, idx);
        if (bi < 0)
            return false;
    }
    Superblock &b = blocks_[static_cast<std::size_t>(bi)];
    if (b.epoch != codeEpoch_) {
        // A store landed on live code (or the caches were bulk
        // invalidated) since this block was compiled. Recompile from
        // current memory; re-decoding every word through the icache
        // fill re-arms the valid bytes, so the *next* overwrite
        // bumps the epoch again. Never shortcut this with a content
        // compare: a same-value store clears the valid byte without
        // re-arming it, and a stamp-only revalidation would let the
        // following (different-value) store go unnoticed.
        ++sbStats_.rebuilds;
        if (!buildInto(b, b.base)) {
            blockAt_[idx] = sbUnbuildable;
            return false;
        }
    }
    // Admission: the block must fit inside the event-free segment,
    // and the supply must provably survive its worst-case drain.
    // When the whole block does not fit the remaining segment, run
    // the longest prefix that does — blocks are straight-line, so a
    // prefix is architecturally just the same instructions with the
    // block ending early. Without this, every segment tail would pay
    // one failed dispatch per remaining instruction. Power
    // inadmissibility is the only true fallback: that is where
    // mid-block brown-outs are allowed to happen, per-instruction.
    // The threshold the voltage is compared against is cached per
    // block and revalidated by draw epoch, so the steady-state
    // admission is one load and one compare.
    if (b.drawStamp != power.drawEpoch()) {
        b.admitVolts =
            power.admissionThresholdVolts(b.worstSeconds);
        b.drawStamp = power.drawEpoch();
    }
    if (t + b.worstDt > seg_end) {
        const sim::Tick budget = seg_end - t;
        sim::Tick wdt = 0;
        double wsec = 0.0;
        std::size_t k = 0;
        while (k < b.ops.size() &&
               wdt + b.ops[k].framStep.dt <= budget) {
            wdt += b.ops[k].framStep.dt;
            wsec += b.ops[k].framStep.dtSeconds;
            ++k;
        }
        // The full-block threshold over-approximates any prefix's;
        // only when it fails is the exact prefix check worth it.
        if (k == 0 || (!power.admissibleAt(b.admitVolts) &&
                       !power.blockDrainAdmissible(wsec))) {
            ++sbStats_.fallbacks;
            return false;
        }
        if (runBlock(t, b, k))
            return true;
    } else {
        if (!power.admissibleAt(b.admitVolts)) {
            ++sbStats_.fallbacks;
            return false;
        }
        if (runBlock(t, b, b.ops.size()))
            return true;
    }
    // Zero instructions retired: the leader thunk itself bailed.
    // A leader that keeps doing that (typically a store whose
    // effective address always resolves to MMIO) makes every
    // dispatch pure overhead, so demote the entry point after a
    // streak. Purely a dispatch heuristic — the instructions still
    // execute, via step() — and invalidateCodeCaches resets the
    // verdict along with every other unbuildable one.
    if (++b.zeroBails >= sbZeroBailDemoteLimit)
        blockAt_[idx] = sbUnbuildable;
    return false;
}

std::int32_t
Mcu::buildBlockAt(mem::Addr pc, std::size_t idx)
{
    if (blocks_.size() >= sbMaxBlocks) {
        blockAt_[idx] = sbUnbuildable;
        return sbUnbuildable;
    }
    blocks_.emplace_back();
    if (!buildInto(blocks_.back(), pc)) {
        blocks_.pop_back();
        blockAt_[idx] = sbUnbuildable;
        return sbUnbuildable;
    }
    const auto bi = static_cast<std::int32_t>(blocks_.size() - 1);
    blockAt_[idx] = bi;
    return bi;
}

bool
Mcu::buildInto(Superblock &b, mem::Addr pc)
{
    b.base = pc;
    b.ops.clear();
    b.worstDt = 0;
    b.worstSeconds = 0.0;
    b.drawStamp = 0; // worstSeconds moves, so the threshold must too
    mem::Region *region = mem_.find(pc);
    if (!region || !region->directStore())
        return false; // never compile out of MMIO-backed words
    const std::uint8_t *store = region->directStore();
    const mem::Addr region_end = region->base() + region->size();
    const std::size_t max_len = std::min<std::size_t>(
        (region_end - pc) / 4, superblockMaxLen);
    for (std::size_t k = 0; k < max_len; ++k) {
        const mem::Addr ipc = pc + static_cast<mem::Addr>(k * 4);
        const std::size_t slot = (ipc - icacheBase_) >> 2;
        if (!icacheValid_[slot]) {
            // Fill the predecode slot from the region's backing
            // store. Setting the valid byte arms the write watch for
            // this word, which is what keeps the block's epoch check
            // sound: every word of a current-epoch block has its
            // valid byte set, so any overwrite bumps the epoch.
            const std::size_t off = ipc - region->base();
            const std::uint32_t word =
                static_cast<std::uint32_t>(store[off]) |
                (static_cast<std::uint32_t>(store[off + 1]) << 8) |
                (static_cast<std::uint32_t>(store[off + 2]) << 16) |
                (static_cast<std::uint32_t>(store[off + 3]) << 24);
            auto decoded = isa::decode(word);
            if (!decoded)
                break;
            unsigned cyc = 0;
            InstrClass cls = InstrClass::Static;
            classifyCost(decoded->op, cyc, cls);
            icache_[slot] = CachedInstr{
                *decoded, cyc,
                sim::secondsFromTicks(static_cast<sim::Tick>(cyc) *
                                      cyclePeriod_),
                cls};
            icacheValid_[slot] = 1;
        }
        const CachedInstr &ci = icache_[slot];
        const isa::BlockBoundary bb = isa::blockBoundary(ci.instr.op);
        if (bb == isa::BlockBoundary::Barrier)
            break; // HALT / CHKPT / calls / returns end the region
        SbOp op;
        op.instr = ci.instr;
        op.cyc = ci.cycles;
        op.framCyc = ci.cycles;
        op.step.dt = static_cast<sim::Tick>(ci.cycles) * cyclePeriod_;
        op.step.dtSeconds = ci.dtSeconds;
        op.framStep = op.step;
        if (ci.cls == InstrClass::Store) {
            op.framCyc = ci.cycles + cfg.framWriteExtraCycles;
            op.framStep.dt =
                static_cast<sim::Tick>(op.framCyc) * cyclePeriod_;
            // Same pure function step() uses for the FRAM surcharge
            // path, so the sub-step seconds match bit for bit.
            op.framStep.dtSeconds =
                sim::secondsFromTicks(op.framStep.dt);
        }
        // Every sub-step must individually satisfy the batched-drain
        // gate step() applies per instruction.
        if (op.framStep.dt > powerMaxStep_ || op.step.dt <= 0)
            break;
        b.ops.push_back(op);
        b.worstDt += op.framStep.dt;
        b.worstSeconds += op.framStep.dtSeconds;
        if (bb == isa::BlockBoundary::Branch)
            break; // a branch is the block's terminal thunk
    }
    if (b.ops.size() < superblockMinLen)
        return false;
    b.epoch = codeEpoch_;
    ++sbStats_.blocksBuilt;
    return true;
}

bool
Mcu::runBlock(sim::Tick &t, Superblock &b, std::size_t n_max)
{
    using isa::Opcode;
    const std::uint64_t entry_epoch = codeEpoch_;
    const std::size_t n = n_max;
    std::uint64_t cyc_sum = 0;
    sim::Tick dt_sum = 0;
    std::size_t done = 0;
    mem::Addr next_pc = b.base;
    bool bailed = false;

    // Drain-behind, loop-fused: each thunk retires architecturally
    // and then immediately feeds its exact sub-step to the drainer.
    // Admission already proved the supply survives the worst-case
    // whole block, so the retired prefix cannot brown out, and
    // nothing inside a block reads the analog state or touches the
    // event queue — so draining after each thunk instead of once at
    // the end is unobservable, produces the identical per-instruction
    // sub-step sequence (and RNG draws) the reference path would
    // have, and lets the core overlap the forward-Euler divide chain
    // with the next thunk's work.
    energy::PowerSystem::BlockDrainer drain(power);
    for (std::size_t j = 0; j < n; ++j) {
        const SbOp &op = b.ops[j];
        const isa::Instr &i = op.instr;
        const auto uimm = static_cast<std::uint32_t>(i.imm);
        switch (i.op) {
          case Opcode::Nop:
            break;
          case Opcode::Li:
            regs[i.rd] = uimm;
            break;
          case Opcode::Lui:
            regs[i.rd] = (uimm & 0xFFFFu) << 16;
            break;
          case Opcode::Mov:
            regs[i.rd] = regs[i.rs];
            break;
          case Opcode::Add:
            regs[i.rd] = regs[i.rs] + regs[i.rt];
            break;
          case Opcode::Sub:
            regs[i.rd] = regs[i.rs] - regs[i.rt];
            break;
          case Opcode::Mul:
            regs[i.rd] = regs[i.rs] * regs[i.rt];
            break;
          case Opcode::Divu:
            regs[i.rd] = regs[i.rt] == 0 ? 0xFFFFFFFFu
                                         : regs[i.rs] / regs[i.rt];
            break;
          case Opcode::Remu:
            regs[i.rd] = regs[i.rt] == 0 ? regs[i.rs]
                                         : regs[i.rs] % regs[i.rt];
            break;
          case Opcode::And:
            regs[i.rd] = regs[i.rs] & regs[i.rt];
            break;
          case Opcode::Or:
            regs[i.rd] = regs[i.rs] | regs[i.rt];
            break;
          case Opcode::Xor:
            regs[i.rd] = regs[i.rs] ^ regs[i.rt];
            break;
          case Opcode::Shl:
            regs[i.rd] = regs[i.rs] << (regs[i.rt] & 31u);
            break;
          case Opcode::Shr:
            regs[i.rd] = regs[i.rs] >> (regs[i.rt] & 31u);
            break;
          case Opcode::Sar:
            regs[i.rd] = static_cast<std::uint32_t>(
                static_cast<std::int32_t>(regs[i.rs]) >>
                (regs[i.rt] & 31u));
            break;
          case Opcode::Addi:
            regs[i.rd] = regs[i.rs] + uimm;
            break;
          case Opcode::Andi:
            regs[i.rd] = regs[i.rs] & (uimm & 0xFFFFu);
            break;
          case Opcode::Ori:
            regs[i.rd] = regs[i.rs] | (uimm & 0xFFFFu);
            break;
          case Opcode::Xori:
            regs[i.rd] = regs[i.rs] ^ (uimm & 0xFFFFu);
            break;
          case Opcode::Shli:
            regs[i.rd] = regs[i.rs] << (uimm & 31u);
            break;
          case Opcode::Shri:
            regs[i.rd] = regs[i.rs] >> (uimm & 31u);
            break;
          case Opcode::Cmp:
            setFlagsFromCompare(regs[i.rs], regs[i.rt]);
            break;
          case Opcode::Cmpi:
            setFlagsFromCompare(regs[i.rs], uimm);
            break;
          case Opcode::Ldw: {
            const mem::Addr ea = regs[i.rs] + uimm;
            std::uint32_t v;
            // MMIO reads have side effects and may schedule events;
            // a faulting access must be (re)run by step() so the
            // fault commits with reference semantics. Either way:
            // bail before any architectural change.
            if (touchesMmio(ea) ||
                mem_.read32(ea, v) != mem::AccessResult::Ok) {
                bailed = true;
                goto out;
            }
            regs[i.rd] = v;
            break;
          }
          case Opcode::Ldb: {
            const mem::Addr ea = regs[i.rs] + uimm;
            std::uint8_t v;
            if (touchesMmio(ea) ||
                mem_.read8(ea, v) != mem::AccessResult::Ok) {
                bailed = true;
                goto out;
            }
            regs[i.rd] = v;
            break;
          }
          case Opcode::Stw:
          case Opcode::Stb: {
            const mem::Addr ea = regs[i.rs] + uimm;
            if (touchesMmio(ea)) {
                bailed = true;
                goto out;
            }
            const bool fram = eaInFram(ea);
            const mem::AccessResult res =
                i.op == Opcode::Stw
                    ? mem_.write32(ea, regs[i.rd])
                    : mem_.write8(
                          ea, static_cast<std::uint8_t>(regs[i.rd]));
            if (res != mem::AccessResult::Ok) {
                bailed = true;
                goto out;
            }
            const auto &st = fram ? op.framStep : op.step;
            drain.substep(st);
            cyc_sum += fram ? op.framCyc : op.cyc;
            dt_sum += st.dt;
            ++done;
            next_pc += 4;
            if (codeEpoch_ != entry_epoch) {
                // Self-modifying store over live code (possibly this
                // very block). The store itself retired; everything
                // after it must re-decode.
                bailed = true;
                goto out;
            }
            continue;
          }
          case Opcode::Push: {
            const mem::Addr ea = regs[isa::regSp] - 4;
            // Bail before the sp decrement: step() then replays the
            // instruction and faults with sp decremented, exactly as
            // the reference interpreter does.
            if (touchesMmio(ea) ||
                mem_.write32(ea, regs[i.rd]) !=
                    mem::AccessResult::Ok) {
                bailed = true;
                goto out;
            }
            regs[isa::regSp] = ea;
            drain.substep(op.step);
            cyc_sum += op.cyc;
            dt_sum += op.step.dt;
            ++done;
            next_pc += 4;
            if (codeEpoch_ != entry_epoch) {
                // Stack writes can land on ex-code words too.
                bailed = true;
                goto out;
            }
            continue;
          }
          case Opcode::Pop: {
            const mem::Addr ea = regs[isa::regSp];
            std::uint32_t v;
            if (touchesMmio(ea) ||
                mem_.read32(ea, v) != mem::AccessResult::Ok) {
                bailed = true;
                goto out;
            }
            regs[isa::regSp] = ea + 4;
            regs[i.rd] = v;
            break;
          }
          case Opcode::Br:
          case Opcode::Beq:
          case Opcode::Bne:
          case Opcode::Blt:
          case Opcode::Bge:
          case Opcode::Bltu:
          case Opcode::Bgeu: {
            bool taken = false;
            switch (i.op) {
              case Opcode::Br: taken = true; break;
              case Opcode::Beq: taken = flags_.z; break;
              case Opcode::Bne: taken = !flags_.z; break;
              case Opcode::Blt: taken = flags_.n != flags_.v; break;
              case Opcode::Bge: taken = flags_.n == flags_.v; break;
              case Opcode::Bltu: taken = !flags_.c; break;
              case Opcode::Bgeu: taken = flags_.c; break;
              default: break;
            }
            const mem::Addr ipc =
                b.base + static_cast<mem::Addr>(j * 4);
            next_pc = ipc + 4 + (taken ? uimm : 0);
            drain.substep(op.step);
            cyc_sum += op.cyc;
            dt_sum += op.step.dt;
            ++done;
            goto out; // the terminal thunk of the block
          }
          default:
            // Barriers never compile into a block; defensive bail.
            bailed = true;
            goto out;
        }
        // Common straight-line commit (non-store, non-stack ops)
        // drains the prefilled static sub-step.
        drain.substep(op.step);
        cyc_sum += op.cyc;
        dt_sum += op.step.dt;
        ++done;
        next_pc += 4;
    }
out:
    drain.commit();
    if (done == 0) {
        // The first thunk bailed before retiring anything: report a
        // miss so the caller's step() handles this PC and the slice
        // makes progress.
        ++sbStats_.bailouts;
        return false;
    }
    cursor.advance(t + dt_sum);
    cycles += cyc_sum;
    instrs += done;
    pc_ = next_pc;
    t += dt_sum;
    b.zeroBails = 0;
    ++sbStats_.execs;
    sbStats_.blockInstrs += done;
    ++sbStats_.lengthCounts[std::min<std::size_t>(done,
                                                  superblockLenCap)];
    if (bailed)
        ++sbStats_.bailouts;
    return true;
}

void
Mcu::enterIrq()
{
    regs[isa::regSp] -= 4;
    if (!memWrite32(regs[isa::regSp], flags_.pack()))
        return;
    regs[isa::regSp] -= 4;
    if (!memWrite32(regs[isa::regSp], pc_))
        return;
    pc_ = irqHandler;
    inIrq = true;
}

void
Mcu::setFlagsFromCompare(std::uint32_t a, std::uint32_t b)
{
    std::uint32_t r = a - b;
    flags_.z = a == b;
    flags_.n = (r >> 31) & 1u;
    flags_.c = a >= b;
    flags_.v = (((a ^ b) & (a ^ r)) >> 31) & 1u;
}

void
Mcu::execute(const isa::Instr &i, sim::Tick)
{
    using isa::Opcode;
    mem::Addr next = pc_ + 4;
    auto uimm = static_cast<std::uint32_t>(i.imm);

    switch (i.op) {
      case Opcode::Nop:
        break;
      case Opcode::Halt:
        state_ = McuState::Halted;
        power.setLoadCurrent(coreLoad, cfg.haltAmps);
        break;
      case Opcode::Li:
        regs[i.rd] = uimm;
        break;
      case Opcode::Lui:
        regs[i.rd] = (uimm & 0xFFFFu) << 16;
        break;
      case Opcode::Mov:
        regs[i.rd] = regs[i.rs];
        break;
      case Opcode::Add:
        regs[i.rd] = regs[i.rs] + regs[i.rt];
        break;
      case Opcode::Sub:
        regs[i.rd] = regs[i.rs] - regs[i.rt];
        break;
      case Opcode::Mul:
        regs[i.rd] = regs[i.rs] * regs[i.rt];
        break;
      case Opcode::Divu:
        regs[i.rd] = regs[i.rt] == 0 ? 0xFFFFFFFFu
                                     : regs[i.rs] / regs[i.rt];
        break;
      case Opcode::Remu:
        regs[i.rd] =
            regs[i.rt] == 0 ? regs[i.rs] : regs[i.rs] % regs[i.rt];
        break;
      case Opcode::And:
        regs[i.rd] = regs[i.rs] & regs[i.rt];
        break;
      case Opcode::Or:
        regs[i.rd] = regs[i.rs] | regs[i.rt];
        break;
      case Opcode::Xor:
        regs[i.rd] = regs[i.rs] ^ regs[i.rt];
        break;
      case Opcode::Shl:
        regs[i.rd] = regs[i.rs] << (regs[i.rt] & 31u);
        break;
      case Opcode::Shr:
        regs[i.rd] = regs[i.rs] >> (regs[i.rt] & 31u);
        break;
      case Opcode::Sar:
        regs[i.rd] = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(regs[i.rs]) >>
            (regs[i.rt] & 31u));
        break;
      case Opcode::Addi:
        regs[i.rd] = regs[i.rs] + uimm;
        break;
      case Opcode::Andi:
        regs[i.rd] = regs[i.rs] & (uimm & 0xFFFFu);
        break;
      case Opcode::Ori:
        regs[i.rd] = regs[i.rs] | (uimm & 0xFFFFu);
        break;
      case Opcode::Xori:
        regs[i.rd] = regs[i.rs] ^ (uimm & 0xFFFFu);
        break;
      case Opcode::Shli:
        regs[i.rd] = regs[i.rs] << (uimm & 31u);
        break;
      case Opcode::Shri:
        regs[i.rd] = regs[i.rs] >> (uimm & 31u);
        break;
      case Opcode::Cmp:
        setFlagsFromCompare(regs[i.rs], regs[i.rt]);
        break;
      case Opcode::Cmpi:
        setFlagsFromCompare(regs[i.rs], uimm);
        break;
      case Opcode::Br:
        next = pc_ + 4 + uimm;
        break;
      case Opcode::Beq:
        if (flags_.z)
            next = pc_ + 4 + uimm;
        break;
      case Opcode::Bne:
        if (!flags_.z)
            next = pc_ + 4 + uimm;
        break;
      case Opcode::Blt:
        if (flags_.n != flags_.v)
            next = pc_ + 4 + uimm;
        break;
      case Opcode::Bge:
        if (flags_.n == flags_.v)
            next = pc_ + 4 + uimm;
        break;
      case Opcode::Bltu:
        if (!flags_.c)
            next = pc_ + 4 + uimm;
        break;
      case Opcode::Bgeu:
        if (flags_.c)
            next = pc_ + 4 + uimm;
        break;
      case Opcode::Ldw: {
        std::uint32_t v;
        if (!memRead32(regs[i.rs] + uimm, v))
            return;
        regs[i.rd] = v;
        break;
      }
      case Opcode::Ldb: {
        std::uint8_t v;
        if (!memRead8(regs[i.rs] + uimm, v))
            return;
        regs[i.rd] = v;
        break;
      }
      case Opcode::Stw:
        if (!memWrite32(regs[i.rs] + uimm, regs[i.rd]))
            return;
        break;
      case Opcode::Stb:
        if (!memWrite8(regs[i.rs] + uimm,
                       static_cast<std::uint8_t>(regs[i.rd])))
            return;
        break;
      case Opcode::Push:
        regs[isa::regSp] -= 4;
        if (!memWrite32(regs[isa::regSp], regs[i.rd]))
            return;
        break;
      case Opcode::Pop: {
        std::uint32_t v;
        if (!memRead32(regs[isa::regSp], v))
            return;
        regs[isa::regSp] += 4;
        regs[i.rd] = v;
        break;
      }
      case Opcode::Call:
        regs[isa::regSp] -= 4;
        if (!memWrite32(regs[isa::regSp], pc_ + 4))
            return;
        next = pc_ + 4 + uimm;
        break;
      case Opcode::Callr:
        regs[isa::regSp] -= 4;
        if (!memWrite32(regs[isa::regSp], pc_ + 4))
            return;
        next = regs[i.rs];
        break;
      case Opcode::Ret: {
        std::uint32_t ra;
        if (!memRead32(regs[isa::regSp], ra))
            return;
        regs[isa::regSp] += 4;
        next = ra;
        break;
      }
      case Opcode::Reti: {
        std::uint32_t ra;
        if (!memRead32(regs[isa::regSp], ra))
            return;
        regs[isa::regSp] += 4;
        std::uint32_t fw;
        if (!memRead32(regs[isa::regSp], fw))
            return;
        regs[isa::regSp] += 4;
        flags_ = isa::Flags::unpack(fw);
        inIrq = false;
        next = ra;
        break;
      }
      case Opcode::Chkpt:
        if (chkptEnabled)
            regs[0] = doCheckpoint() ? 1u : 0u;
        break;
    }
    pc_ = next;
}

void
Mcu::auditExec(const isa::Instr &i)
{
    using isa::Opcode;
    auto uimm = static_cast<std::uint32_t>(i.imm);
    switch (i.op) {
      case Opcode::Ldw:
        audit_->onLoad(i.rd, regs[i.rs] + uimm, 4);
        break;
      case Opcode::Ldb:
        audit_->onLoad(i.rd, regs[i.rs] + uimm, 1);
        break;
      case Opcode::Stw:
        audit_->onStore(i.rs, regs[i.rs] + uimm, pc_, 4);
        break;
      case Opcode::Stb:
        audit_->onStore(i.rs, regs[i.rs] + uimm, pc_, 1);
        break;
      case Opcode::Mov:
      case Opcode::Addi:
        audit_->onRegDerive(i.rd, i.rs);
        break;
      case Opcode::Add:
      case Opcode::Sub:
        audit_->onRegCombine(i.rd, i.rs, i.rt);
        break;
      case Opcode::Li:
      case Opcode::Lui:
      case Opcode::Mul:
      case Opcode::Divu:
      case Opcode::Remu:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::Sar:
      case Opcode::Andi:
      case Opcode::Ori:
      case Opcode::Xori:
      case Opcode::Shli:
      case Opcode::Shri:
      case Opcode::Pop:
        audit_->onRegWrite(i.rd);
        break;
      case Opcode::Chkpt:
        if (chkptEnabled)
            audit_->onRegWrite(0);
        break;
      default:
        break;
    }
}

unsigned
Mcu::checkpointCostCycles() const
{
    mem::Addr sp = regs[isa::regSp];
    mem::Addr stack_bytes = sp <= cfg.stackTop ? cfg.stackTop - sp : 0;
    return checkpointCostCyclesFor(stack_bytes);
}

unsigned
Mcu::checkpointCostCyclesFor(std::uint32_t stack_bytes) const
{
    unsigned words = 22 + stack_bytes / 4;
    if (cfg.commitDiscipline == CommitDiscipline::Sealed)
        ++words; // the seal word
    return words * (1 + cfg.memExtraCycles + cfg.framWriteExtraCycles);
}

Mcu::CostQuote
Mcu::costQuote(isa::Opcode op) const
{
    unsigned cyc = 0;
    InstrClass cls = InstrClass::Static;
    classifyCost(op, cyc, cls);
    CostQuote q;
    q.cycles = cyc;
    q.framExtraCycles =
        cls == InstrClass::Store ? cfg.framWriteExtraCycles : 0;
    q.stackDependent = cls == InstrClass::Chkpt;
    return q;
}

std::uint32_t
Mcu::frameCrcAt(mem::Addr base, std::uint32_t stack_bytes,
                std::uint32_t seq) const
{
    mem::Region *region = mem_.find(base);
    if (auto *ram = dynamic_cast<mem::Ram *>(region)) {
        const mem::Addr end = base + ckStackOff + stack_bytes;
        if (end <= ram->base() + ram->size()) {
            const std::uint8_t *frame =
                ram->data() + (base - ram->base());
            return runtime::ckfmt::frameCrc(frame, stack_bytes, seq);
        }
    }
    // Slow path for exotic layouts: stream the frame byte-wise.
    std::uint32_t crc = seq;
    for (mem::Addr off = ckPcOff; off < ckStackOff + stack_bytes;
         ++off) {
        std::uint8_t b = 0;
        mem_.read8(base + off, b);
        crc = sim::crc32(&b, 1, crc);
    }
    return crc;
}

bool
Mcu::slotSealed(int slot, std::uint32_t &seq_out) const
{
    mem::Addr base = cfg.checkpointBase + slot * cfg.checkpointSlotSize;
    if (debugRead32(base + ckMagicOff) != ckMagic)
        return false;
    std::uint32_t seq = debugRead32(base + ckSeqOff);
    std::uint32_t sp = debugRead32(base + ckSpOff);
    std::uint32_t stack_bytes = debugRead32(base + ckStackLenOff);
    if (sp > cfg.stackTop ||
        ckStackOff + stack_bytes > cfg.checkpointSlotSize ||
        runtime::ckfmt::sealOff(stack_bytes) + 4 >
            cfg.checkpointSlotSize) {
        return false;
    }
    std::uint32_t seal =
        debugRead32(base + runtime::ckfmt::sealOff(stack_bytes));
    if (seal != frameCrcAt(base, stack_bytes, seq))
        return false;
    seq_out = seq;
    return true;
}

bool
Mcu::commitAtomic(mem::Addr base, std::uint32_t sp,
                  std::uint32_t stack_bytes, std::uint32_t next_seq)
{
    const bool naive = cfg.commitDiscipline == CommitDiscipline::Naive;
    // pc saved as the instruction after CHKPT: execution resumes
    // there on restore.
    if (!memWrite32(base + ckMagicOff, ckMagic))
        return false;
    // Naive discipline: sequence number written eagerly, before the
    // payload. Harmless here (the whole burst is atomic) but the
    // ordering bug it models shows its teeth under interruptible
    // commits.
    if (naive && !memWrite32(base + ckSeqOff, next_seq))
        return false;
    if (!memWrite32(base + ckPcOff, pc_ + 4) ||
        !memWrite32(base + ckFlagsOff, flags_.pack()) ||
        !memWrite32(base + ckSpOff, sp) ||
        !memWrite32(base + ckStackLenOff, stack_bytes)) {
        return false;
    }
    for (unsigned r = 0; r < isa::numRegs; ++r) {
        if (!memWrite32(base + ckRegsOff + r * 4, regs[r]))
            return false;
    }
    for (mem::Addr off = 0; off < stack_bytes; ++off) {
        std::uint8_t b;
        if (!memRead8(sp + off, b) ||
            !memWrite8(base + ckStackOff + off, b)) {
            return false;
        }
    }
    if (cfg.commitDiscipline == CommitDiscipline::Sealed &&
        !memWrite32(base + runtime::ckfmt::sealOff(stack_bytes),
                    frameCrcAt(base, stack_bytes, next_seq))) {
        return false;
    }
    if (!naive && !memWrite32(base + ckSeqOff, next_seq))
        return false;
    return true;
}

bool
Mcu::commitInterruptible(mem::Addr base, std::uint32_t sp,
                         std::uint32_t stack_bytes,
                         std::uint32_t next_seq)
{
    const unsigned word_cyc =
        1 + cfg.memExtraCycles + cfg.framWriteExtraCycles;
    const sim::Tick word_dt =
        static_cast<sim::Tick>(word_cyc) * cyclePeriod_;
    bool torn = false;
    if (nv_)
        nv_->beginBurst(base);

    // One NV word write: drain its energy first (the cell program
    // pulse), then land the value. If the supply browns out during
    // the pulse the burst tears here -- the word either never lands
    // or lands with corrupted bits (partial cell write).
    auto commitWord = [&](mem::Addr addr, std::uint32_t value) {
        if (torn || state_ != McuState::Running)
            return false;
        if (nvFault_)
            nvFault_->onNvCommitWord();
        const sim::Tick at = cursor.now() + word_dt;
        power.advanceTo(at);
        cursor.advance(at);
        cycles += word_cyc;
        commitExtraTicks_ += word_dt;
        if (state_ != McuState::Running) {
            torn = true;
            std::uint32_t v = value;
            if (nvFault_ && nvFault_->onTornWord(v))
                mem_.write32(addr, v);
            return false;
        }
        if (nv_)
            nv_->noteBurstWord();
        return memWrite32(addr, value);
    };
    auto stackWord = [&](mem::Addr off) {
        std::uint32_t w = 0;
        for (unsigned b = 0; b < 4 && off + b < stack_bytes; ++b) {
            std::uint8_t byte = 0;
            mem_.read8(sp + off + b, byte);
            w |= static_cast<std::uint32_t>(byte) << (8 * b);
        }
        return w;
    };

    const bool naive = cfg.commitDiscipline == CommitDiscipline::Naive;
    bool ok = commitWord(base + ckMagicOff, ckMagic);
    if (naive)
        ok = ok && commitWord(base + ckSeqOff, next_seq);
    ok = ok && commitWord(base + ckPcOff, pc_ + 4);
    ok = ok && commitWord(base + ckFlagsOff, flags_.pack());
    ok = ok && commitWord(base + ckSpOff, sp);
    ok = ok && commitWord(base + ckStackLenOff, stack_bytes);
    for (unsigned r = 0; ok && r < isa::numRegs; ++r)
        ok = commitWord(base + ckRegsOff + r * 4, regs[r]);
    for (mem::Addr off = 0; ok && off < stack_bytes; off += 4)
        ok = commitWord(base + ckStackOff + off, stackWord(off));
    if (ok && cfg.commitDiscipline == CommitDiscipline::Sealed) {
        ok = commitWord(base + runtime::ckfmt::sealOff(stack_bytes),
                        frameCrcAt(base, stack_bytes, next_seq));
    }
    if (ok && !naive)
        ok = commitWord(base + ckSeqOff, next_seq);

    if (nv_)
        nv_->endBurst(torn);
    if (torn)
        ++tornCommits_;
    return ok;
}

bool
Mcu::doCheckpoint()
{
    mem::Addr sp = regs[isa::regSp];
    if (sp > cfg.stackTop)
        return false;
    mem::Addr stack_bytes = cfg.stackTop - sp;
    if (ckStackOff + stack_bytes > cfg.checkpointSlotSize)
        return false;
    // The interruptible path word-pads the stack image; the sealed
    // discipline appends the seal word after it. Either needs room.
    const std::uint32_t padded =
        runtime::ckfmt::align4(static_cast<std::uint32_t>(stack_bytes));
    if (cfg.interruptibleCommit &&
        ckStackOff + padded > cfg.checkpointSlotSize)
        return false;
    if (cfg.commitDiscipline == CommitDiscipline::Sealed &&
        runtime::ckfmt::sealOff(static_cast<std::uint32_t>(
            stack_bytes)) + 4 > cfg.checkpointSlotSize)
        return false;

    // Double-buffered: write into the slot with the older sequence
    // number, then commit by writing the new sequence number last
    // (SeqLast/Sealed; Naive writes it first, which is the bug the
    // crash-anywhere oracle exists to catch).
    std::uint32_t seq0 = debugRead32(cfg.checkpointBase + ckSeqOff);
    std::uint32_t seq1 = debugRead32(cfg.checkpointBase +
                                     cfg.checkpointSlotSize + ckSeqOff);
    int slot = seq0 <= seq1 ? 0 : 1;
    std::uint32_t next_seq = std::max(seq0, seq1) + 1;
    mem::Addr base = cfg.checkpointBase + slot * cfg.checkpointSlotSize;
    if (nv_)
        nv_->setCommitSlot(slot);

    bool ok = cfg.interruptibleCommit
                  ? commitInterruptible(base, sp, stack_bytes, next_seq)
                  : commitAtomic(base, sp, stack_bytes, next_seq);
    if (!ok)
        return false;
    ++checkpointsTaken;
    if (audit_) {
        audit_->onCheckpointCommit(
            cursor.now(), slot,
            frameCrcAt(base, stack_bytes, next_seq));
    }
    return true;
}

bool
Mcu::tryRestore()
{
    int best_slot = -1;
    std::uint32_t best_seq = 0;
    if (cfg.commitDiscipline == CommitDiscipline::Sealed) {
        // Recovery scan: newest *sealed* frame wins. A torn newest
        // frame fails its seal check and the scan falls back to the
        // surviving older frame -- crash-anywhere thus resumes from
        // either the pre- or post-checkpoint world, never a hybrid.
        for (int slot = 0; slot < 2; ++slot) {
            std::uint32_t seq = 0;
            if (slotSealed(slot, seq) && seq > best_seq) {
                best_seq = seq;
                best_slot = slot;
            }
        }
    } else {
        for (int slot = 0; slot < 2; ++slot) {
            mem::Addr base =
                cfg.checkpointBase + slot * cfg.checkpointSlotSize;
            std::uint32_t magic = debugRead32(base + ckMagicOff);
            std::uint32_t seq = debugRead32(base + ckSeqOff);
            if (magic == ckMagic && seq > best_seq) {
                best_seq = seq;
                best_slot = slot;
            }
        }
    }
    if (best_slot < 0)
        return false;
    mem::Addr base =
        cfg.checkpointBase + best_slot * cfg.checkpointSlotSize;
    mem::Addr sp = debugRead32(base + ckSpOff);
    mem::Addr stack_bytes = debugRead32(base + ckStackLenOff);
    if (sp > cfg.stackTop ||
        ckStackOff + stack_bytes > cfg.checkpointSlotSize) {
        return false;
    }
    for (unsigned r = 0; r < isa::numRegs; ++r)
        regs[r] = debugRead32(base + ckRegsOff + r * 4);
    regs[isa::regSp] = sp;
    flags_ = isa::Flags::unpack(debugRead32(base + ckFlagsOff));
    for (mem::Addr off = 0; off < stack_bytes; ++off) {
        std::uint8_t b = 0;
        mem_.read8(base + ckStackOff + off, b);
        mem_.write8(sp + off, b);
    }
    pc_ = debugRead32(base + ckPcOff);
    ++checkpointsRestored;
    if (audit_) {
        audit_->onCheckpointRestore(
            cursor.now(), best_slot,
            frameCrcAt(base,
                       static_cast<std::uint32_t>(stack_bytes),
                       debugRead32(base + ckSeqOff)));
    }
    return true;
}

void
Mcu::raiseFault(McuFault cause)
{
    // A crashed core keeps drawing current until the supply browns
    // out: the symptom the paper's case study describes as "the GPIO
    // pin indicating main loop progress stops toggling".
    fault_ = cause;
    state_ = McuState::Faulted;
    ++faults;
}

bool
Mcu::memRead32(mem::Addr addr, std::uint32_t &value)
{
    switch (mem_.read32(addr, value)) {
      case mem::AccessResult::Ok:
        return true;
      case mem::AccessResult::Misaligned:
        raiseFault(McuFault::Misaligned);
        return false;
      case mem::AccessResult::Unmapped:
        raiseFault(McuFault::BusError);
        return false;
    }
    return false;
}

bool
Mcu::memWrite32(mem::Addr addr, std::uint32_t value)
{
    switch (mem_.write32(addr, value)) {
      case mem::AccessResult::Ok:
        return true;
      case mem::AccessResult::Misaligned:
        raiseFault(McuFault::Misaligned);
        return false;
      case mem::AccessResult::Unmapped:
        raiseFault(McuFault::BusError);
        return false;
    }
    return false;
}

bool
Mcu::memRead8(mem::Addr addr, std::uint8_t &value)
{
    if (mem_.read8(addr, value) == mem::AccessResult::Ok)
        return true;
    raiseFault(McuFault::BusError);
    return false;
}

bool
Mcu::memWrite8(mem::Addr addr, std::uint8_t value)
{
    if (mem_.write8(addr, value) == mem::AccessResult::Ok)
        return true;
    raiseFault(McuFault::BusError);
    return false;
}

std::uint32_t
Mcu::debugRead32(mem::Addr addr) const
{
    std::uint32_t value = 0;
    if (mem_.read32(addr, value) != mem::AccessResult::Ok)
        return 0xFFFFFFFFu;
    return value;
}

void
Mcu::debugWrite32(mem::Addr addr, std::uint32_t value)
{
    mem_.write32(addr, value);
}

template <class Ar>
void
Mcu::fields(Ar &a)
{
    a.section("mcu");
    for (std::uint32_t &r : regs)
        a.u32(r);
    a.u32(pc_);
    a.u32(sim::via(flags_.pack(), [this](std::uint32_t v) {
        flags_ = isa::Flags::unpack(v);
    }));
    a.u8(state_);
    a.u8(fault_);
    a.u32(entry);
    a.u32(irqHandler);
    a.boolean(irqLine);
    a.boolean(inIrq);
    a.boolean(chkptEnabled);
    a.u64(sleepCycles);
    a.u64(cycles);
    a.u64(instrs);
    a.u64(reboots);
    a.u64(faults);
    a.u64(checkpointsTaken);
    a.u64(checkpointsRestored);
    a.u64(tornCommits_);
    a.event(sliceEvent, sliceDueAt, [this] { runSlice(); });
    a.event(bootEvent, bootDueAt, [this] { boot(); });
}

void
Mcu::saveState(sim::SnapshotWriter &w) const
{
    const_cast<Mcu *>(this)->fields(w);
}

void
Mcu::restoreState(sim::SnapshotReader &r, sim::EventRearmer &rearmer)
{
    fields(r.rearmingWith(rearmer));
    // The decode caches are epoch artifacts, not architectural
    // state: drop them and let them refill (bit-identical either
    // way). Restored memory bytes may differ arbitrarily from the
    // pre-restore image, so superblocks must recompile too.
    invalidateCodeCaches();
}

} // namespace edb::mcu
