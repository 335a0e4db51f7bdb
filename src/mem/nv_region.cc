#include "mem/nv_region.hh"

#include "sim/snapshot.hh"

namespace edb::mem {

namespace {

/** splitmix64 finalizer — the deterministic per-word hash behind the
 *  stuck-at patterns (no dependence on any run-time RNG stream). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace

NvTechConfig
framTech()
{
    NvTechConfig t;
    t.name = "fram";
    t.writeExtraCycles = 2;     // near-SRAM write latency
    t.writeChargeCoulombs = 2e-10;
    t.enduranceWrites = 0;      // ~1e14 cycles: unlimited at sim scale
    t.trackWear = true;
    return t;
}

NvTechConfig
flashTech()
{
    NvTechConfig t;
    t.name = "flash";
    t.writeExtraCycles = 64;    // program/erase dominated
    t.writeChargeCoulombs = 5e-9;
    t.enduranceWrites = 100000; // ~1e5 program/erase cycles
    t.trackWear = true;
    return t;
}

NvTechConfig
sttMramTech()
{
    NvTechConfig t;
    t.name = "sttmram";
    t.writeExtraCycles = 6;
    t.writeChargeCoulombs = 8e-10;
    t.enduranceWrites = 0;      // >1e12: unlimited at sim scale
    t.trackWear = true;
    return t;
}

NvRegion::NvRegion(std::string region_name, Addr base_addr,
                   Addr size_bytes, RegionKind region_kind,
                   NvTechConfig tech)
    : Ram(std::move(region_name), base_addr, size_bytes, region_kind),
      tech_(std::move(tech)), active_(tech_.active()),
      wearTracked_(tech_.trackWear || tech_.enduranceWrites != 0)
{
    if (active_) {
        // Force routed accesses through the virtual overrides below.
        // This also (deliberately) disqualifies the region from the
        // superblock tier's direct-store requirement, so batched
        // execution never skips the per-write energy drain.
        setDirectStore(nullptr);
        if (wearTracked_)
            wear_.assign((size_bytes + 3) / 4, 0);
    }
}

std::uint32_t
NvRegion::stuckMask(std::size_t word_index) const
{
    // ~1/8 bit density: AND of three independent hash draws.
    const std::uint64_t h0 = mix64(tech_.wearSeed ^ word_index);
    const std::uint64_t h1 = mix64(h0 + 1);
    const std::uint64_t h2 = mix64(h0 + 2);
    std::uint32_t mask = static_cast<std::uint32_t>(h0 & h1 & h2);
    if (mask == 0) // a worn word always has at least one dead bit
        mask = 1u << (h1 & 31);
    return mask;
}

std::uint32_t
NvRegion::wornValue(std::size_t word_index, std::uint32_t old_value,
                    std::uint32_t new_value)
{
    if (!wearTracked_)
        return new_value;
    std::uint64_t &count = wear_[word_index];
    ++count;
    if (tech_.enduranceWrites == 0 || count <= tech_.enduranceWrites)
        return new_value;
    const std::uint32_t mask = stuckMask(word_index);
    return (new_value & ~mask) | (old_value & mask);
}

void
NvRegion::write8(Addr addr, std::uint8_t value)
{
    if (active_) {
        const std::size_t word = (addr - base()) >> 2;
        const unsigned shift = 8u * (addr & 3u);
        const std::uint32_t old_byte = Ram::read8(addr);
        const std::uint32_t stored =
            wornValue(word, old_byte << shift,
                      static_cast<std::uint32_t>(value) << shift);
        value = static_cast<std::uint8_t>(stored >> shift);
        Ram::write8(addr, value);
        if (sink_ && tech_.writeChargeCoulombs > 0.0)
            sink_(tech_.writeChargeCoulombs);
        return;
    }
    Ram::write8(addr, value);
}

void
NvRegion::write32(Addr addr, std::uint32_t value)
{
    if (active_) {
        const std::size_t word = (addr - base()) >> 2;
        value = wornValue(word, Ram::read32(addr), value);
        Ram::write32(addr, value);
        if (sink_ && tech_.writeChargeCoulombs > 0.0)
            sink_(tech_.writeChargeCoulombs);
        return;
    }
    Ram::write32(addr, value);
}

std::uint64_t
NvRegion::wearAt(Addr addr) const
{
    if (!wearTracked_ || !contains(addr))
        return 0;
    return wear_[(addr - base()) >> 2];
}

std::uint64_t
NvRegion::maxWear() const
{
    std::uint64_t most = 0;
    for (std::uint64_t w : wear_)
        most = w > most ? w : most;
    return most;
}

std::uint64_t
NvRegion::totalWear() const
{
    std::uint64_t total = 0;
    for (std::uint64_t w : wear_)
        total += w;
    return total;
}

std::uint64_t
NvRegion::wornWords() const
{
    if (tech_.enduranceWrites == 0)
        return 0;
    std::uint64_t worn = 0;
    for (std::uint64_t w : wear_)
        worn += w > tech_.enduranceWrites ? 1 : 0;
    return worn;
}

template <class Ar>
void
NvRegion::fields(Ar &a)
{
    a.part(static_cast<Ram &>(*this));
    a.section("nvrg");
    // The wear table is sized by the device: a snapshot with another
    // word count fails the restore.
    a.expect(static_cast<std::uint64_t>(wear_.size()));
    for (std::uint64_t &count : wear_)
        a.u64(count);
    a.boolean(burstOpen_);
    a.u32(burstAddr_);
    a.u32(burstWords_);
    a.u64(tornWrites_);
    a.u32(commitSlot_);
}

void
NvRegion::saveState(sim::SnapshotWriter &w) const
{
    const_cast<NvRegion *>(this)->fields(w);
}

void
NvRegion::restoreState(sim::SnapshotReader &r)
{
    fields(r);
}

} // namespace edb::mem
