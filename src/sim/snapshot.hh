/**
 * @file
 * Versioned, CRC-protected snapshots of complete simulator state.
 *
 * A snapshot captures everything a resumed run needs to be
 * bit-identical to the run it was taken from: the event clock, the
 * shared RNG engine (mid-block included), every component's
 * architectural and statistical state, and the *residue* of the event
 * queue — the set of pending events with their due times and original
 * scheduling order. Closures cannot be serialized, so each component
 * records (saved event id, due time) for its own pending events and
 * re-creates the callbacks on restore; the `EventRearmer` replays
 * them into the fresh queue sorted by saved id, which preserves the
 * queue's same-tick tie-break order exactly (rearmed events receive
 * the smallest new ids, in the saved relative order, and anything
 * scheduled after restore receives a larger id — just as anything
 * scheduled after the snapshot point did in the original run).
 *
 * Format (DESIGN.md section 8): an 8-byte magic "EDBSNAP1", a u32
 * format version, a u32 payload length and a u32 CRC-32 of the
 * payload, followed by the payload itself — typed little-endian
 * fields interleaved with length-tagged section markers that make
 * save/restore mismatches fail loudly instead of misparsing.
 */

#ifndef EDB_SIM_SNAPSHOT_HH
#define EDB_SIM_SNAPSHOT_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"
#include "sim/time.hh"

namespace edb::sim {

/** CRC-32 (IEEE 802.3, reflected 0xEDB88320) of a byte range. */
std::uint32_t crc32(const void *data, std::size_t len,
                    std::uint32_t seed = 0);

/**
 * A walk field that is not a plain member: saving reads `live`,
 * restoring calls `set` with the saved value. For state behind an
 * accessor pair (the simulator clock, a packed flags word).
 */
template <class T, class Set>
struct Via
{
    T live;
    Set set;

    operator T() const { return live; }
    Via &
    operator=(T v)
    {
        set(v);
        return *this;
    }
};

template <class T, class Set>
Via<T, Set>
via(T live, Set set)
{
    return {live, std::move(set)};
}

/**
 * Serializes typed fields into a snapshot payload and seals it with
 * the versioned, CRC-protected header.
 */
class SnapshotWriter
{
  public:
    /// @name Typed little-endian fields
    /// Integers narrower than the field are zero-extended (a signed
    /// 16-bit value travels as its unsigned bit pattern); enums and
    /// `Via` fields convert to the field width.
    /// @{
    template <class T> void u8(const T &v) { put(wire<std::uint8_t>(v), 1); }
    template <class T> void u32(const T &v) { put(wire<std::uint32_t>(v), 4); }
    template <class T> void u64(const T &v) { put(wire<std::uint64_t>(v), 8); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    template <class T> void tick(const T &v) { i64(static_cast<Tick>(v)); }
    template <class T> void boolean(const T &v) { u8(v ? 1 : 0); }
    /** Doubles travel as their exact bit pattern. */
    template <class T> void f64(const T &v) { putF64(static_cast<double>(v)); }
    /// @}

    /** Raw byte range (fixed length known to both sides). */
    void bytes(const void *data, std::size_t len);

    /** Length-prefixed (u64) byte range. */
    void blob(const void *data, std::size_t len);
    /** Length-prefixed byte container (vector or string). */
    template <class Bytes>
    void
    blob(const Bytes &b)
    {
        blob(b.data(), b.size());
    }

    /**
     * Section marker. Readers verify the tag before parsing the
     * fields that follow, so a save/restore schema mismatch fails at
     * the section boundary instead of silently misparsing.
     */
    void section(const char *tag);

    /** Full RNG engine state (twist state, output buffer, index). */
    void rng(const Rng &r);

    /// @name Field-walk vocabulary (DESIGN.md section 8.1)
    /// Each method has a SnapshotReader twin taking the same
    /// arguments, so one `fields(Ar &)` walk serves save and restore.
    /// @{

    /** Fingerprint: a value the restoring side must already hold
     *  (a config parameter, a device-fixed count). Written at the
     *  width of `T` (1, 4 or 8 bytes). */
    template <class T>
    void
    expect(const T &v)
    {
        static_assert(std::is_integral_v<T> &&
                      (sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8));
        if constexpr (sizeof(T) == 1)
            u8(v);
        else if constexpr (sizeof(T) == 4)
            u32(v);
        else
            u64(v);
    }

    /** u32 element count, then `each(element)` per element. */
    template <class C, class Fn>
    void
    seq(C &c, Fn each)
    {
        u32(static_cast<std::uint32_t>(c.size()));
        for (auto &e : c)
            each(e);
    }

    /** Presence flag, then the value (0 when absent). */
    void
    optionalF64(const std::optional<double> &v)
    {
        boolean(v.has_value());
        f64(v.value_or(0.0));
    }

    /**
     * One pending event: a presence flag, then its id in the saved
     * run (relative order at equal ticks) and its absolute due time.
     * `id` is `invalidEventId` when nothing is pending. The callback
     * is what the reader re-arms; the writer ignores it.
     */
    template <class Cb>
    void
    event(EventId id, Tick due, Cb &&)
    {
        pendingEvent(id, due);
    }

    /** A list of (id, due) pending events: entries due at or before
     *  `after` have fired and are history, not queue residue. */
    template <class Cb>
    void
    events(const std::vector<std::pair<EventId, Tick>> &list,
           Tick after, Cb &&)
    {
        std::uint32_t live = 0;
        for (const auto &[id, due] : list)
            live += due > after ? 1 : 0;
        u32(live);
        for (const auto &[id, due] : list) {
            if (due > after)
                pendingEvent(id, due);
        }
    }

    /** A nested component, through its own saveState. */
    template <class T> void part(const T &c) { c.saveState(*this); }
    /// @}

    /** Seal: header (magic, version, length, CRC) + payload. */
    std::vector<std::uint8_t> finish() const;

    /** Seal and write to a file. @return false on I/O error. */
    bool writeFile(const std::string &path) const;

    static constexpr char magic[9] = "EDBSNAP1";
    static constexpr std::uint32_t version = 1;

  private:
    template <class W, class T>
    static W
    wire(const T &v)
    {
        if constexpr (std::is_integral_v<T> && std::is_signed_v<T>)
            return static_cast<W>(static_cast<std::make_unsigned_t<T>>(v));
        else
            return static_cast<W>(v);
    }

    void
    put(std::uint64_t v, int width)
    {
        for (int i = 0; i < width; ++i)
            buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void putF64(double v);
    void pendingEvent(EventId savedId, Tick when);

    std::vector<std::uint8_t> buf;
};

class EventRearmer;

/**
 * Parses a sealed snapshot. The value-returning accessors are total:
 * a read past the end, a CRC/magic/version mismatch or a section-tag
 * mismatch sets a sticky failure flag and returns zeroes, so restore
 * code can run straight through and check `ok()` once at the end.
 *
 * The reference-taking twins of the SnapshotWriter methods make up
 * the restore side of a field walk. Once the reader has failed they
 * leave their destination untouched, so a walk that hits a bad
 * section tag, fingerprint or count changes nothing after that
 * point.
 */
class SnapshotReader
{
  public:
    /** Adopt a sealed image; verifies magic, version and CRC. */
    bool load(std::vector<std::uint8_t> image);

    /** Read and verify a file. */
    bool loadFile(const std::string &path);

    /// @name Typed fields (mirror SnapshotWriter)
    /// @{
    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    Tick tick() { return i64(); }
    bool boolean() { return u8() != 0; }
    double f64();
    /// @}

    std::vector<std::uint8_t> blob();

    /** Verify a section marker; mismatch sets the failure flag. */
    bool section(const char *tag);

    /** Restore the full RNG engine state. */
    void rng(Rng &r);

    bool ok() const { return !fail_; }
    bool atEnd() const { return pos >= payload.size(); }

    /** Force the failure flag (restore-side consistency checks). */
    void invalidate() { fail_ = true; }

    /// @name Field-walk vocabulary (twins of SnapshotWriter's)
    /// @{
    template <class T> void u8(T &&dst) { set(dst, u8()); }
    template <class T> void u32(T &&dst) { set(dst, u32()); }
    template <class T> void u64(T &&dst) { set(dst, u64()); }
    template <class T> void tick(T &&dst) { set(dst, tick()); }
    template <class T> void boolean(T &&dst) { set(dst, boolean()); }
    template <class T> void f64(T &&dst) { set(dst, f64()); }

    /** Length-prefixed blob of exactly `len` bytes, copied in place;
     *  any other length invalidates and leaves `out` untouched. */
    void blob(void *out, std::size_t len);
    /** Length-prefixed byte container (vector or string). */
    template <class Bytes>
    void
    blob(Bytes &b)
    {
        std::vector<std::uint8_t> v = blob();
        if (ok())
            b.assign(v.begin(), v.end());
    }

    /** Compare against the live value; a mismatch invalidates. */
    template <class T>
    void
    expect(const T &v)
    {
        static_assert(std::is_integral_v<T> &&
                      (sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8));
        std::uint64_t saved;
        if constexpr (sizeof(T) == 1)
            saved = u8();
        else if constexpr (sizeof(T) == 4)
            saved = u32();
        else
            saved = u64();
        if (ok() && static_cast<T>(saved) != v)
            invalidate();
    }

    /**
     * Replace `c` with the saved elements. The count is bounded by
     * the bytes left (every element takes at least one), so a
     * corrupt count fails instead of allocating or spinning.
     */
    template <class C, class Fn>
    void
    seq(C &c, Fn each)
    {
        std::uint32_t n = count();
        if (!ok())
            return;
        c.clear();
        for (std::uint32_t i = 0; i < n && ok(); ++i) {
            typename SeqElement<C>::type e{};
            each(e);
            if (ok())
                c.insert(c.end(), std::move(e));
        }
    }

    void optionalF64(std::optional<double> &v);

    /** Use `rearmer` for the event fields that follow. */
    SnapshotReader &
    rearmingWith(EventRearmer &rearmer)
    {
        rearmer_ = &rearmer;
        return *this;
    }

    /**
     * Cancel the live event `id` (if any), then hand the saved one,
     * when one was pending, to the rearmer. `id`/`due` receive the
     * new id and due time at `EventRearmer::flush()`.
     */
    void event(EventId &id, Tick &due, EventQueue::Callback cb);

    /** Cancel the live entries of `list` (due after `after`), then
     *  replace them with the saved ones, re-armed. */
    void events(std::vector<std::pair<EventId, Tick>> &list, Tick after,
                EventQueue::Callback cb);

    /** A nested component, through its own restoreState. */
    template <class T>
    void
    part(T &c)
    {
        if constexpr (requires(EventRearmer &e) {
                          c.restoreState(*this, e);
                      }) {
            if (rearmer_)
                c.restoreState(*this, *rearmer_);
            else
                invalidate();
        } else {
            c.restoreState(*this);
        }
    }
    /// @}

  private:
    /** A map's elements are read as mutable (key, value) pairs. */
    template <class C>
    struct SeqElement
    {
        using type = typename C::value_type;
    };
    template <class C>
        requires requires { typename C::mapped_type; }
    struct SeqElement<C>
    {
        using type =
            std::pair<typename C::key_type, typename C::mapped_type>;
    };

    template <class T, class V>
    void
    set(T &dst, V v)
    {
        if (!ok())
            return;
        if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>)
            dst = static_cast<T>(v);
        else
            dst = v; // Via fields
    }

    bool need(std::size_t n);
    /** A u32 element count; more elements than bytes left (each
     *  takes at least one) fails and yields 0. */
    std::uint32_t count();
    /** Event fields need a bound rearmer; without one, fail. */
    bool canRearm();
    /** Read one pending-event record; a pending one goes to the
     *  rearmer with `assign`. */
    void rearm(EventQueue::Callback cb,
               std::function<void(EventId, Tick)> assign);

    std::vector<std::uint8_t> payload;
    std::size_t pos = 0;
    bool fail_ = true;
    EventRearmer *rearmer_ = nullptr;
};

/**
 * Replays the saved event-queue residue into a fresh simulator.
 *
 * Components register their pending events during restore in any
 * order; `flush()` sorts them by saved id and schedules them in that
 * order, reproducing the original queue's same-tick tie-break order
 * (see the file comment). Each component's `assign` closure receives
 * the new id so its cancellation handle stays valid.
 */
class EventRearmer
{
  public:
    explicit EventRearmer(Simulator &simulator) : sim_(simulator) {}

    /** Cancel `id` in the live queue, if pending, and clear it. */
    void
    cancel(EventId &id)
    {
        if (id != invalidEventId) {
            sim_.cancel(id);
            id = invalidEventId;
        }
    }

    void
    add(EventId savedId, Tick when, EventQueue::Callback cb,
        std::function<void(EventId, Tick)> assign)
    {
        pending.push_back(
            Pending{savedId, when, std::move(cb), std::move(assign)});
    }

    /** Schedule everything registered so far, in saved-id order. */
    void flush();

  private:
    struct Pending
    {
        EventId savedId;
        Tick when;
        EventQueue::Callback cb;
        std::function<void(EventId, Tick)> assign;
    };

    Simulator &sim_;
    std::vector<Pending> pending;
};

} // namespace edb::sim

#endif // EDB_SIM_SNAPSHOT_HH
