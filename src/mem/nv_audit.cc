#include "mem/nv_audit.hh"

#include <sstream>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace edb::mem {

std::string
nvFindingText(const NvFinding &finding)
{
    std::ostringstream os;
    os << "WAR violation: store at pc=0x" << std::hex << finding.storePc
       << " wrote NV 0x" << finding.storeAddr
       << " through a value loaded from NV 0x" << finding.guideAddr
       << std::dec << " in reboot interval " << finding.interval
       << "; power failed at tick " << finding.lossTick
       << " before a checkpoint committed the interval";
    return os.str();
}

NvAuditor::NvAuditor(NvAuditConfig config, Ram &nv_region)
    : cfg(config), nv(nv_region)
{
    if (cfg.nvSize == 0) {
        cfg.nvBase = nv.base();
        cfg.nvSize = nv.size();
    }
    if (cfg.nvBase < nv.base() ||
        cfg.nvBase + cfg.nvSize > nv.base() + nv.size())
        sim::fatal("NvAuditor: audited range outside region ", nv.name());
}

void
NvAuditor::onLoad(unsigned rd, Addr ea, unsigned width)
{
    (void)width;
    if (rd >= numRegs)
        return;
    if (audited(ea)) {
        tainted[rd] = true;
        guide[rd] = ea;
        ++readsThisInterval;
    } else {
        tainted[rd] = false;
    }
}

void
NvAuditor::onRegDerive(unsigned rd, unsigned rs)
{
    if (rd >= numRegs || rs >= numRegs)
        return;
    tainted[rd] = tainted[rs];
    guide[rd] = guide[rs];
}

void
NvAuditor::onRegCombine(unsigned rd, unsigned rs, unsigned rt)
{
    if (rd >= numRegs || rs >= numRegs || rt >= numRegs)
        return;
    if (tainted[rs]) {
        tainted[rd] = true;
        guide[rd] = guide[rs];
    } else if (tainted[rt]) {
        tainted[rd] = true;
        guide[rd] = guide[rt];
    } else {
        tainted[rd] = false;
    }
}

void
NvAuditor::onRegWrite(unsigned rd)
{
    if (rd < numRegs)
        tainted[rd] = false;
}

void
NvAuditor::onStore(unsigned base, Addr ea, Addr pc, unsigned width)
{
    (void)width;
    if (base >= numRegs || !tainted[base])
        return;
    if (!audited(ea))
        return;
    records.push_back(Record{guide[base], ea, pc, interval});
}

void
NvAuditor::onNvWrite(Addr addr, unsigned width)
{
    ++writesThisInterval;
    // A write over a guide address closes the records it guides: the
    // interval updated the read's source itself, so a replay of the
    // interval re-derives the value (benign read-modify-write).
    for (std::size_t i = 0; i < records.size();) {
        Addr g = records[i].guideAddr;
        if (g - addr < width) {
            records[i] = records.back();
            records.pop_back();
        } else {
            ++i;
        }
    }
}

void
NvAuditor::rawWriteHook(void *ctx, Addr addr, unsigned width)
{
    auto *self = static_cast<NvAuditor *>(ctx);
    if (self->audited(addr))
        self->onNvWrite(addr, width);
}

void
NvAuditor::onBoot(sim::Tick now)
{
    (void)now;
    ++interval;
    readsThisInterval = 0;
    writesThisInterval = 0;
    tainted.fill(false);
    records.clear();
}

void
NvAuditor::onPowerLoss(sim::Tick now)
{
    for (const Record &rec : records) {
        ++violations;
        if (findings_.size() < cfg.maxFindings)
            findings_.push_back(NvFinding{rec.guideAddr, rec.storeAddr,
                                          rec.storePc, rec.interval,
                                          now});
    }
    records.clear();
    tainted.fill(false);
}

void
NvAuditor::onCheckpointCommit(sim::Tick now, int slot,
                              std::uint32_t frame_crc)
{
    // The interval's NV image is now the recovery point; open records
    // are committed, not time-travelling.
    records.clear();
    Addr off = cfg.nvBase - nv.base();
    shadow.assign(nv.data() + off, nv.data() + off + cfg.nvSize);
    shadowValid_ = true;
    shadowTick_ = now;
    if (slot == 0 || slot == 1) {
        commitCrcValid_[slot] = true;
        commitCrc_[slot] = frame_crc;
    }
}

void
NvAuditor::onCheckpointRestore(sim::Tick now, int slot,
                               std::uint32_t frame_crc)
{
    (void)now;
    // Execution resumes from committed state: anything tracked in the
    // aborted tail is irrelevant to the replayed interval.
    records.clear();
    tainted.fill(false);
    if (slot == 0 || slot == 1) {
        // A restore from a frame no completed commit sealed: either
        // the slot was never committed under audit, or its payload
        // hash drifted from the committed one (torn or corrupted
        // frame). Both mean the recovery protocol resurrected state
        // the commit never vouched for.
        if (!commitCrcValid_[slot] || commitCrc_[slot] != frame_crc)
            ++unsealedRestores_;
    }
}

void
NvAuditor::reset()
{
    tainted.fill(false);
    records.clear();
    findings_.clear();
    violations = 0;
    interval = 0;
    readsThisInterval = 0;
    writesThisInterval = 0;
    shadow.clear();
    shadowValid_ = false;
    shadowTick_ = 0;
    commitCrcValid_.fill(false);
    commitCrc_.fill(0);
    unsealedRestores_ = 0;
}

std::vector<NvFinding>
NvAuditor::takeFindings()
{
    std::vector<NvFinding> out;
    out.swap(findings_);
    return out;
}

template <class Ar>
void
NvAuditor::fields(Ar &a)
{
    a.section("nvau");
    for (unsigned r = 0; r < numRegs; ++r) {
        a.boolean(tainted[r]);
        a.u32(guide[r]);
    }
    a.seq(records, [&a](auto &rec) {
        a.u32(rec.guideAddr);
        a.u32(rec.storeAddr);
        a.u32(rec.storePc);
        a.u64(rec.interval);
    });
    a.seq(findings_, [&a](auto &f) {
        a.u32(f.guideAddr);
        a.u32(f.storeAddr);
        a.u32(f.storePc);
        a.u64(f.interval);
        a.tick(f.lossTick);
    });
    a.u64(violations);
    a.u64(interval);
    a.u64(readsThisInterval);
    a.u64(writesThisInterval);
    a.boolean(shadowValid_);
    a.tick(shadowTick_);
    a.blob(shadow);
    for (int slot = 0; slot < 2; ++slot) {
        a.boolean(commitCrcValid_[slot]);
        a.u32(commitCrc_[slot]);
    }
    a.u64(unsealedRestores_);
}

void
NvAuditor::saveState(sim::SnapshotWriter &w) const
{
    const_cast<NvAuditor *>(this)->fields(w);
}

void
NvAuditor::restoreState(sim::SnapshotReader &r)
{
    fields(r);
}

std::vector<Addr>
NvAuditor::shadowDiff(std::size_t limit) const
{
    std::vector<Addr> diffs;
    if (!shadowValid_)
        return diffs;
    Addr off = cfg.nvBase - nv.base();
    const std::uint8_t *live = nv.data() + off;
    for (Addr i = 0; i < cfg.nvSize && diffs.size() < limit; ++i) {
        Addr addr = cfg.nvBase + i;
        if (addr - cfg.checkpointBase < cfg.checkpointSpan)
            continue;
        if (live[i] != shadow[i])
            diffs.push_back(addr);
    }
    return diffs;
}

} // namespace edb::mem
