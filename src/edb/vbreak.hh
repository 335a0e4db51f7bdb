/**
 * @file
 * Virtual breakpoints: zero-energy conditional breakpoints evaluated
 * inside the simulator (DESIGN.md §13).
 *
 * The paper's target-side breakpoints (internal, external, combined)
 * each cost the target something — code bytes, a GPIO poll, or a
 * wake from the debugger. A *virtual* breakpoint costs the target
 * nothing at all: the host evaluates the location and an optional
 * trigger condition over registers, non-volatile words and the
 * capacitor voltage from outside the device, during the MCU tracer
 * callback. The target never executes an extra instruction and never
 * drains an extra nanojoule, so the architectural digest of a traced
 * run is bit-identical to an untraced one (the PR 7 superblock-parity
 * guarantee makes the tracer itself free).
 *
 * Conditions are parsed once into a small expression tree; evaluation
 * is strictly read-only — registers via `Mcu::reg`, NV/SRAM words via
 * the raw region arrays (never the memory map, which would trip MMIO
 * side effects), and the capacitor via `voltageNoAdvance()` (never
 * `voltage()`, which advances the analog integrator).
 *
 * Grammar (no precedence surprises, `&&` binds tighter than `||`):
 *
 *     expr    := and ('||' and)*
 *     and     := cmp ('&&' cmp)*
 *     cmp     := '(' expr ')' | operand relop operand
 *     relop   := '==' | '!=' | '<=' | '>=' | '<' | '>'
 *     operand := rN | pc | vcap | instrs | cycles
 *              | nv[ADDR] | sram[ADDR] | NUMBER
 *
 * `nv[a]` reads the 32-bit little-endian FRAM word at absolute
 * address `a`; `sram[a]` likewise for SRAM. Out-of-range addresses
 * evaluate to 0 (a condition can never fault the host). Numbers may
 * be decimal, 0x-hex, or floating point (for `vcap` thresholds).
 *
 * Condition text arrives off the wire, so hostile input is bounded
 * at parse time: text over 4096 bytes and parenthesis nesting past
 * 32 levels are rejected (the parser recurses per '(').
 */

#ifndef EDB_EDB_VBREAK_HH
#define EDB_EDB_VBREAK_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mem/memory.hh"
#include "sim/time.hh"

namespace edb::target {
class Wisp;
}

namespace edb::isa {
struct Instr;
}

namespace edb::edbdbg {

/** A parsed, side-effect-free trigger condition. */
class VBreakCondition
{
  public:
    /** An empty condition is always true (unconditional break). */
    VBreakCondition() = default;

    /**
     * Parse `text` into a condition. On failure returns nullopt and,
     * when `error` is non-null, stores a human-readable reason.
     */
    static std::optional<VBreakCondition>
    parse(const std::string &text, std::string *error = nullptr);

    /**
     * Evaluate against a target. Strictly read-only: no memory-map
     * access, no analog advance, no RNG draw — the run with the
     * condition evaluated is bit-identical to the run without.
     */
    bool eval(const target::Wisp &wisp) const;

    /** Original source text ("" for the unconditional default). */
    const std::string &text() const { return text_; }

    /** True for the always-true default. */
    bool unconditional() const { return root == nullptr; }

    struct Node; // expression tree (internal)

  private:
    std::shared_ptr<const Node> root;
    std::string text_;
};

/** One virtual breakpoint owned by a session. */
struct VirtualBreakpoint
{
    std::uint32_t id = 0;        ///< Server-assigned, unique per world.
    std::uint32_t sessionId = 0; ///< Owning session.
    mem::Addr addr = 0;          ///< Instruction address to match.
    VBreakCondition cond;        ///< Trigger condition (may be empty).
    bool enabled = true;
    std::uint64_t hits = 0;      ///< Times the condition fired.
    std::uint64_t evals = 0;     ///< Times the address matched.
};

/** One recorded trigger, queued for delivery to the owning client. */
struct VBreakHit
{
    std::uint32_t bkptId = 0;
    std::uint32_t sessionId = 0;
    mem::Addr pc = 0;
    sim::Tick when = 0;
    std::uint64_t instrs = 0;
    double vcap = 0.0;
    std::uint32_t r0 = 0; ///< First argument register, for context.
};

/**
 * The per-world breakpoint set plus its bounded hit buffer. The
 * debug server installs one probe per attached world as an MCU
 * tracer. Mutation of the breakpoint map happens only in the fleet's
 * sequential barrier phases; during the parallel advance phase the
 * tracer (run by the single worker that owns the world) only reads
 * the map and appends to this probe's own buffer, so no locking is
 * needed anywhere.
 *
 * The hit buffer is bounded (`maxPendingHits`): a breakpoint in a
 * hot loop cannot take the server's memory down; overflow is counted
 * in `droppedHits` and surfaced to the owning session as a degraded
 * delivery.
 */
class WorldProbe
{
  public:
    explicit WorldProbe(std::size_t max_pending_hits = 256)
        : maxPendingHits(max_pending_hits)
    {}

    /**
     * Subscribe (or re-subscribe) this probe's tracer on `wisp`. The
     * fleet's rebalance step migrates worlds into fresh objects, so
     * the server calls this at every barrier poll; re-subscribing on
     * the same device replaces the probe's entry, so it never fires
     * twice. Tracers the world subscribed itself (the WAR-gadget
     * watch on auditor-completeness worlds) keep firing alongside.
     */
    void install(target::Wisp &wisp);

    /** Unsubscribe (last session on the world detached); the
     *  world's own tracers stay. A no-op on a device the probe is
     *  not subscribed to (e.g. a rebalance-migrated world). */
    void uninstall(target::Wisp &wisp);

    /** Add or replace a breakpoint. */
    void put(const VirtualBreakpoint &bp);
    /** Remove breakpoint `id`; returns false when unknown. */
    bool erase(std::uint32_t id);
    /** Remove every breakpoint owned by `session_id`. */
    std::size_t eraseSession(std::uint32_t session_id);
    /** Look up by id (nullptr when unknown). */
    const VirtualBreakpoint *find(std::uint32_t id) const;

    /** Drain the pending hit buffer (barrier phase only). */
    std::vector<VBreakHit> drainHits();

    bool empty() const { return byId.empty(); }
    std::size_t count() const { return byId.size(); }
    std::uint64_t droppedHits() const { return dropped; }
    std::uint64_t evals() const { return evals_; }

    /** All breakpoints, id-ordered (status reporting). */
    const std::map<std::uint32_t, VirtualBreakpoint> &
    breakpoints() const
    {
        return byId;
    }

  private:
    void onInstruction(const target::Wisp &wisp, mem::Addr pc);

    std::size_t maxPendingHits;
    std::map<std::uint32_t, VirtualBreakpoint> byId;
    /** addr -> breakpoint ids (the tracer's fast path). */
    std::multimap<mem::Addr, std::uint32_t> byAddr;
    std::vector<VBreakHit> hits;
    std::uint64_t dropped = 0;
    std::uint64_t evals_ = 0;
};

} // namespace edb::edbdbg

#endif // EDB_EDB_VBREAK_HH
