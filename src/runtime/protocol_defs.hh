/**
 * @file
 * Wire protocol between the target-side libEDB runtime and the EDB
 * board, over the dedicated GPIO request line + debug UART
 * (paper Section 4.2: "the library implements the target-side half
 * of the protocol for communicating with the debugger over a
 * dedicated GPIO line and a UART link").
 *
 * These byte values are shared between the C++ debugger firmware
 * (src/edb) and the generated target assembly (src/runtime), which
 * emits them as .equ constants.
 *
 * Framing: every message, in both directions, travels inside a frame
 *
 *     SYNC(0x7E) | LEN | PAYLOAD[LEN] | CRC-8(LEN ++ PAYLOAD)
 *
 * where CRC-8 uses the polynomial 0x07 (x^8 + x^2 + x + 1, MSB
 * first, zero init). The first payload byte is the message type. A
 * corrupted, dropped or duplicated byte at worst kills one frame:
 * the receiver re-hunts for SYNC and (host side) times out stale
 * partial frames, so a single bad byte can no longer desync the
 * link permanently.
 */

#ifndef EDB_RUNTIME_PROTOCOL_DEFS_HH
#define EDB_RUNTIME_PROTOCOL_DEFS_HH

#include <cstddef>
#include <cstdint>

namespace edb::runtime::proto {

/// @name Frame layer
/// @{
/** Start-of-frame marker (may also occur inside payloads; the CRC
 *  and length plausibility checks weed out false syncs). A payload
 *  of exactly 0x7E bytes cannot be framed unambiguously: its length
 *  byte reads as a repeated SYNC, so the receiver drops the frame.
 *  JSON-RPC bodies of that length are padded by one space
 *  (edbdbg::buildJsonFrame); target messages are not. */
constexpr std::uint8_t syncByte = 0x7E;
/** CRC-8 polynomial (x^8 + x^2 + x + 1). */
constexpr std::uint8_t crcPoly = 0x07;
/** Largest payload the host parser accepts. */
constexpr std::size_t maxPayload = 255;
/** Largest payload the target-side receive buffer accepts
 *  (commands are at most 1 + 4 + 4 bytes). */
constexpr std::size_t maxCommandPayload = 12;
/// @}

/// @name Target -> debugger message types (first payload byte)
/// @{
constexpr std::uint8_t msgAssertFail = 0x01; ///< + id lo, id hi
constexpr std::uint8_t msgBkptHit = 0x02;    ///< + id lo, id hi
constexpr std::uint8_t msgGuardBegin = 0x03;
constexpr std::uint8_t msgGuardEnd = 0x04;
constexpr std::uint8_t msgPrintf = 0x05; ///< + nargs, args, fmt..NUL
constexpr std::uint8_t msgReadReply = 0x06; ///< + data bytes
constexpr std::uint8_t msgWriteAck = 0x07;
/** Reply to cmdStatus while waiting for ackRestored: tells the host
 *  a guard-end/printf event frame was lost so it can restore and
 *  release the target anyway (degraded, but never deadlocked). */
constexpr std::uint8_t msgWaitRestore = 0x08;
/// @}

/// @name Debugger -> target message types
/// @{
constexpr std::uint8_t ackActive = 0xA0;  ///< Tether engaged; proceed.
constexpr std::uint8_t ackRestored = 0xA1; ///< Energy restored; go.
constexpr std::uint8_t cmdRead = 0x81;  ///< + addr(4 LE), len(2 LE)
constexpr std::uint8_t cmdWrite = 0x82; ///< + addr(4 LE), value(4 LE)
constexpr std::uint8_t cmdResume = 0x83;
/** Link probe: "what are you waiting for?" The target answers by
 *  retransmitting its pending event (service loop) or with
 *  msgWaitRestore (restore wait). */
constexpr std::uint8_t cmdStatus = 0x84;
/// @}

/** Breakpoint id reported by the energy-breakpoint IRQ handler. */
constexpr std::uint16_t energyBkptId = 0xFFFF;

/** CRC-8 (poly 0x07, zero init) over a byte, incrementally. */
constexpr std::uint8_t
crc8Step(std::uint8_t crc, std::uint8_t byte)
{
    crc ^= byte;
    for (int i = 0; i < 8; ++i) {
        crc = (crc & 0x80u)
                  ? static_cast<std::uint8_t>((crc << 1) ^ crcPoly)
                  : static_cast<std::uint8_t>(crc << 1);
    }
    return crc;
}

/** CRC-8 over a buffer. */
inline std::uint8_t
crc8(const std::uint8_t *data, std::size_t len, std::uint8_t seed = 0)
{
    std::uint8_t crc = seed;
    for (std::size_t i = 0; i < len; ++i)
        crc = crc8Step(crc, data[i]);
    return crc;
}

} // namespace edb::runtime::proto

#endif // EDB_RUNTIME_PROTOCOL_DEFS_HH
