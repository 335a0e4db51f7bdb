#include "mcu/uart.hh"

#include "sim/snapshot.hh"

namespace edb::mcu {

Uart::Uart(sim::Simulator &simulator, std::string component_name,
           sim::TimeCursor &time_cursor, energy::PowerSystem &power_sys,
           UartConfig config)
    : sim::Component(simulator, std::move(component_name)),
      cursor(time_cursor),
      power(power_sys),
      cfg(config)
{
    txLoad = power.addLoad(name() + ".tx", cfg.txActiveAmps, false);
}

sim::Tick
Uart::byteTime() const
{
    return sim::ticksFromSeconds(cfg.bitsPerByte / cfg.baud);
}

void
Uart::installMmio(mem::MmioRegion &mmio, mem::Addr tx_addr,
                  mem::Addr status_addr, mem::Addr rx_addr)
{
    mmio.addRegister(
        tx_addr, name() + ".tx", nullptr,
        [this](std::uint32_t v) {
            startTx(static_cast<std::uint8_t>(v));
        });
    mmio.addRegister(
        status_addr, name() + ".status",
        [this] {
            std::uint32_t s = 0;
            if (busy)
                s |= 1u;
            if (!rxFifo.empty())
                s |= 2u;
            return s;
        },
        nullptr);
    mmio.addRegister(
        rx_addr, name() + ".rx",
        [this]() -> std::uint32_t {
            if (rxFifo.empty())
                return 0;
            std::uint8_t b = rxFifo.front();
            rxFifo.pop_front();
            return b;
        },
        nullptr);
}

void
Uart::addTxListener(TxListener listener)
{
    txListeners.push_back(std::move(listener));
}

void
Uart::startTx(std::uint8_t byte)
{
    if (busy) {
        // Software is expected to poll the busy bit; a write while
        // busy is dropped, as on real hardware without a TX FIFO.
        ++txDropped;
        return;
    }
    busy = true;
    shifting = byte;
    power.setLoadEnabled(txLoad, true);
    txDueAt = cursor.now() + byteTime();
    txEvent = cursor.scheduleIn(byteTime(), [this] { finishTx(); });
}

void
Uart::finishTx()
{
    txEvent = sim::invalidEventId;
    if (!busy)
        return;
    busy = false;
    power.setLoadEnabled(txLoad, false);
    ++txCount;
    std::uint8_t byte = shifting;
    sim::Tick when = cursor.now();
    for (const auto &listener : txListeners)
        listener(byte, when);
}

void
Uart::receiveByte(std::uint8_t byte)
{
    rxFifo.push_back(byte);
    while (rxFifo.size() > cfg.rxFifoDepth)
        rxFifo.pop_front();
}

void
Uart::powerLost()
{
    if (txEvent != sim::invalidEventId) {
        sim().cancel(txEvent);
        txEvent = sim::invalidEventId;
    }
    busy = false;
    power.setLoadEnabled(txLoad, false);
    rxFifo.clear();
}

template <class Ar>
void
Uart::fields(Ar &a)
{
    a.section("uart");
    a.boolean(busy);
    a.u8(shifting);
    a.u64(txCount);
    a.u64(txDropped);
    a.seq(rxFifo, [&a](auto &b) { a.u8(b); });
    // The txLoad enable is restored positionally by PowerSystem.
    a.event(txEvent, txDueAt, [this] { finishTx(); });
}

void
Uart::saveState(sim::SnapshotWriter &w) const
{
    const_cast<Uart *>(this)->fields(w);
}

void
Uart::restoreState(sim::SnapshotReader &r, sim::EventRearmer &rearmer)
{
    fields(r.rearmingWith(rearmer));
}

} // namespace edb::mcu
