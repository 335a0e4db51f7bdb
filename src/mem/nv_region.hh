/**
 * @file
 * Parameterized non-volatile memory backend.
 *
 * The seed simulator's FRAM was an idealized byte array: every store
 * atomic, free and indestructible. Real NV technologies differ
 * materially in write latency, energy-per-write and endurance (NORM,
 * PAPERS.md), and those differences are exactly what makes checkpoint
 * commit integrity a hardware-software co-design problem (DiCA).
 * NvRegion keeps the flat Ram storage model but adds a per-technology
 * parameter table:
 *
 *  - write latency, surfaced as extra cycles per FRAM store (wired
 *    into McuConfig::framWriteExtraCycles by the target);
 *  - energy per write, drawn out of the storage capacitor through a
 *    caller-supplied sink (PowerSystem::drawCharge), so NV-heavy
 *    programs measurably shorten their own on-periods;
 *  - endurance: a per-word wear table, and once a word's write count
 *    exceeds the endurance budget a deterministic subset of its bits
 *    becomes stuck-at (retains the old value), seeded per region.
 *
 * A default-constructed NvTechConfig is *passive*: no wear table, no
 * energy, no latency override. A passive NvRegion keeps its direct
 * store published and is bit-identical to the plain Ram it replaces —
 * the routed fast path devirtualizes straight into the byte array and
 * none of the overrides below ever run. An *active* config unpublishes
 * the direct store so every routed write dispatches virtually through
 * the wear/energy model (reads stay side-effect-free either way).
 * Unpublishing also keeps the superblock tier honest for free: code
 * lives in FRAM and superblocks require a direct store on the code
 * region, so an active NV backend automatically falls back to the
 * per-instruction path whose drain accounting the energy model hooks.
 *
 * The region also carries the commit-burst latch the MCU's
 * interruptible checkpoint commit drives (DESIGN.md §11): which slot
 * is being committed, how many words of the burst have retired, and
 * how many bursts ended torn. That state is part of the world and is
 * snapshotted with it.
 */

#ifndef EDB_MEM_NV_REGION_HH
#define EDB_MEM_NV_REGION_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mem/memory.hh"

namespace edb::mem {

/** Per-technology NV parameter table (NORM-flavoured magnitudes). */
struct NvTechConfig
{
    /** Technology tag, reported in bench JSON. */
    std::string name = "ideal";
    /**
     * Extra MCU cycles per FRAM store. 0 means "keep the McuConfig
     * default"; the target applies a nonzero value to
     * `McuConfig::framWriteExtraCycles` when assembling the device.
     */
    unsigned writeExtraCycles = 0;
    /** Charge drawn from the capacitor per NV write (coulombs). */
    double writeChargeCoulombs = 0.0;
    /** Writes per word before wear-out; 0 = unlimited endurance. */
    std::uint64_t enduranceWrites = 0;
    /** Track the per-word wear table even without an endurance
     *  limit (reporting-only mode). */
    bool trackWear = false;
    /** Seed of the deterministic stuck-at bit pattern. */
    std::uint64_t wearSeed = 0x57454152u; // "WEAR"

    /** Active = any behaviour beyond a plain Ram. */
    bool
    active() const
    {
        return writeChargeCoulombs > 0.0 || enduranceWrites != 0 ||
               trackWear;
    }
};

/** FRAM: near-SRAM latency, cheap writes, effectively unlimited
 *  endurance at simulation scale (~1e14 cycles). */
NvTechConfig framTech();
/** Flash: slow, expensive, low-endurance writes (~1e5 cycles). */
NvTechConfig flashTech();
/** STT-MRAM: moderate latency/energy, high endurance. */
NvTechConfig sttMramTech();

/**
 * Flat non-volatile region with technology-dependent write behaviour.
 * See the file comment for the passive/active split.
 */
class NvRegion : public Ram
{
  public:
    /** Charge sink, called with coulombs per modelled NV write. */
    using EnergySink = std::function<void(double)>;

    NvRegion(std::string region_name, Addr base_addr, Addr size_bytes,
             RegionKind region_kind, NvTechConfig tech = {});

    const NvTechConfig &tech() const { return tech_; }
    bool active() const { return active_; }

    /** Wire the energy-per-write drain (typically into
     *  PowerSystem::drawCharge, gated on the rail being up). */
    void setEnergySink(EnergySink sink) { sink_ = std::move(sink); }

    void write8(Addr addr, std::uint8_t value) override;
    void write32(Addr addr, std::uint32_t value) override;

    /// @name Wear statistics (active regions with wear tracking)
    /// @{
    /** Write count of the word containing `addr` (0 when the wear
     *  table is off). */
    std::uint64_t wearAt(Addr addr) const;
    /** Highest per-word write count. */
    std::uint64_t maxWear() const;
    /** Sum of all per-word write counts. */
    std::uint64_t totalWear() const;
    /** Words whose wear exceeds the endurance budget. */
    std::uint64_t wornWords() const;
    /** Deterministic stuck-at mask of a worn word (~1/8 of bits). */
    std::uint32_t stuckMask(std::size_t word_index) const;
    /// @}

    /// @name Commit-burst latch (driven by the MCU checkpoint unit)
    /// @{
    void
    beginBurst(Addr addr)
    {
        burstOpen_ = true;
        burstAddr_ = addr;
        burstWords_ = 0;
    }
    void noteBurstWord() { ++burstWords_; }
    /** Close the burst; a torn close bumps the torn-write counter. */
    void
    endBurst(bool torn)
    {
        if (torn && burstOpen_)
            ++tornWrites_;
        burstOpen_ = false;
    }
    bool burstOpen() const { return burstOpen_; }
    Addr burstAddr() const { return burstAddr_; }
    std::uint32_t burstWords() const { return burstWords_; }
    /** Bursts that ended mid-flight (prefix committed, suffix old). */
    std::uint64_t tornWrites() const { return tornWrites_; }
    /** Commit-buffer selector: slot of the last opened commit. */
    void setCommitSlot(int slot) { commitSlot_ = slot; }
    int commitSlot() const { return commitSlot_; }
    /// @}

    /** Serialize Ram contents + NV backend state (wear table,
     *  in-flight burst latch, commit-buffer selector). */
    void saveState(sim::SnapshotWriter &w) const;
    void restoreState(sim::SnapshotReader &r);

  private:
    /** Snapshot field list (DESIGN.md section 8.1). */
    template <class Ar> void fields(Ar &a);

    /** Apply wear accounting + stuck-at masking for one word write;
     *  returns the value that actually lands in the cells. */
    std::uint32_t wornValue(std::size_t word_index,
                            std::uint32_t old_value,
                            std::uint32_t new_value);

    NvTechConfig tech_;
    bool active_ = false;
    bool wearTracked_ = false;
    EnergySink sink_;
    /** Per-word write counts; empty when wear tracking is off. */
    std::vector<std::uint64_t> wear_;
    bool burstOpen_ = false;
    Addr burstAddr_ = 0;
    std::uint32_t burstWords_ = 0;
    std::uint64_t tornWrites_ = 0;
    int commitSlot_ = -1;
};

} // namespace edb::mem

#endif // EDB_MEM_NV_REGION_HH
