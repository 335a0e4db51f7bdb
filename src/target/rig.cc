#include "target/rig.hh"

#include <sstream>
#include <type_traits>

#include "sim/snapshot.hh"

namespace edb::target {

void
BrownOutSchedule::arm(sim::Tick from)
{
    player.arm(log, from, [this](const sim::ScheduleEntry &e) {
        wisp.power().capacitor().setVoltage(e.arg);
    });
}

GadgetWatch::GadgetWatch(Wisp &wisp, mem::Addr done_pc) : wisp(wisp)
{
    if (done_pc != 0)
        wisp.mcu().addTracer(this,
                             [this, done_pc](mem::Addr pc,
                                             const isa::Instr &) {
                                 if (pc == done_pc)
                                     live = true;
                             });
    wisp.power().addPowerListener([this](bool on) {
        if (!on) {
            if (live)
                ++losses_;
            live = false;
        }
    });
}

template <class Ar>
void
GadgetWatch::fields(Ar &a)
{
    a.boolean(live);
    a.u64(losses_);
}

void
GadgetWatch::saveState(sim::SnapshotWriter &w) const
{
    const_cast<GadgetWatch *>(this)->fields(w);
}

void
GadgetWatch::restoreState(sim::SnapshotReader &r)
{
    fields(r);
}

namespace {

/** Calls `fn(name, a's value, b's value)` for every digest field, in
 *  declaration order: the one field list `write` and `diff` share. */
template <class Fn>
void
forEachField(const WispDigest &a, const WispDigest &b, Fn fn)
{
    fn("instrs", a.instrs, b.instrs);
    fn("cycles", a.cycles, b.cycles);
    fn("reboots", a.reboots, b.reboots);
    fn("faults", a.faults, b.faults);
    fn("checkpoints", a.checkpoints, b.checkpoints);
    fn("restores", a.restores, b.restores);
    fn("boots", a.boots, b.boots);
    fn("pc", a.pc, b.pc);
    fn("state", a.state, b.state);
    fn("flags", a.flags, b.flags);
    for (unsigned i = 0; i < isa::numRegs; ++i)
        fn("r" + std::to_string(i), a.regs[i], b.regs[i]);
    fn("volts", a.volts, b.volts);
    fn("now", a.now, b.now);
    fn("rngCrc", a.rngCrc, b.rngCrc);
    fn("framCrc", a.framCrc, b.framCrc);
    fn("sramCrc", a.sramCrc, b.sramCrc);
    fn("framWear", a.framWear, b.framWear);
}

} // namespace

WispDigest
WispDigest::of(const Wisp &wisp)
{
    WispDigest d;
    const mcu::Mcu &m = wisp.mcu();
    d.instrs = m.instrCount();
    d.cycles = m.cycleCount();
    d.reboots = m.rebootCount();
    d.faults = m.faultCount();
    d.checkpoints = m.checkpointCount();
    d.restores = m.restoreCount();
    d.boots = wisp.power().bootCount();
    d.pc = m.pc();
    d.state = static_cast<std::uint8_t>(m.state());
    d.flags = m.flags().pack();
    for (unsigned i = 0; i < isa::numRegs; ++i)
        d.regs[i] = m.reg(i);
    d.volts = wisp.power().voltageNoAdvance();
    d.now = wisp.sim().now();
    sim::SnapshotWriter rng;
    rng.rng(wisp.sim().rng());
    std::vector<std::uint8_t> image = rng.finish();
    d.rngCrc = sim::crc32(image.data(), image.size());
    const mem::Ram &fram = wisp.framRegion();
    d.framCrc = sim::crc32(fram.data(), fram.size());
    const mem::Ram &sram = wisp.sramRegion();
    d.sramCrc = sim::crc32(sram.data(), sram.size());
    d.framWear = wisp.framRegion().totalWear();
    return d;
}

void
WispDigest::write(sim::SnapshotWriter &w) const
{
    forEachField(*this, *this, [&w](const std::string &, auto v, auto) {
        if constexpr (std::is_floating_point_v<decltype(v)>)
            w.f64(v);
        else if constexpr (sizeof(v) == 8)
            w.u64(static_cast<std::uint64_t>(v));
        else if constexpr (sizeof(v) == 4)
            w.u32(v);
        else
            w.u8(v);
    });
}

std::string
WispDigest::diff(const WispDigest &other) const
{
    std::ostringstream s;
    forEachField(*this, other,
                 [&s](const std::string &name, auto mine, auto theirs) {
                     if (mine != theirs)
                         s << " " << name << "=" << +mine << "/"
                           << +theirs;
                 });
    return s.str();
}

} // namespace edb::target
