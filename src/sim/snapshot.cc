#include "sim/snapshot.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>

namespace edb::sim {

namespace {

const std::uint32_t *
crcTable()
{
    // Magic-static initialization: thread-safe under C++11 (fleet
    // worker threads snapshot worlds concurrently). The previous
    // lazily-flagged fill raced when two shards took their first
    // snapshot at once.
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table.data();
}

constexpr std::uint8_t sectionMark = 0xA5;
constexpr std::size_t headerSize = 8 + 4 + 4 + 4;

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t seed)
{
    const std::uint32_t *table = crcTable();
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i)
        c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

void
SnapshotWriter::putF64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
SnapshotWriter::bytes(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    buf.insert(buf.end(), p, p + len);
}

void
SnapshotWriter::blob(const void *data, std::size_t len)
{
    u64(len);
    bytes(data, len);
}

void
SnapshotWriter::section(const char *tag)
{
    std::size_t len = std::strlen(tag);
    u8(sectionMark);
    u8(static_cast<std::uint8_t>(len));
    bytes(tag, len);
}

void
SnapshotWriter::rng(const Rng &r)
{
    Mt64::State s = r.exportState();
    section("rng");
    for (std::uint64_t w : s.state)
        u64(w);
    for (std::uint64_t w : s.out)
        u64(w);
    u32(s.index);
}

void
SnapshotWriter::pendingEvent(EventId savedId, Tick when)
{
    boolean(savedId != invalidEventId);
    if (savedId != invalidEventId) {
        u64(savedId);
        tick(when);
    }
}

std::vector<std::uint8_t>
SnapshotWriter::finish() const
{
    std::vector<std::uint8_t> image;
    image.reserve(headerSize + buf.size());
    image.insert(image.end(), magic, magic + 8);
    auto push32 = [&image](std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            image.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    push32(version);
    push32(static_cast<std::uint32_t>(buf.size()));
    push32(crc32(buf.data(), buf.size()));
    image.insert(image.end(), buf.begin(), buf.end());
    return image;
}

bool
SnapshotWriter::writeFile(const std::string &path) const
{
    std::vector<std::uint8_t> image = finish();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out.write(reinterpret_cast<const char *>(image.data()),
              static_cast<std::streamsize>(image.size()));
    return static_cast<bool>(out);
}

bool
SnapshotReader::load(std::vector<std::uint8_t> image)
{
    fail_ = true;
    payload.clear();
    pos = 0;
    if (image.size() < headerSize)
        return false;
    if (std::memcmp(image.data(), SnapshotWriter::magic, 8) != 0)
        return false;
    auto read32 = [&image](std::size_t at) {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(image[at + i]) << (8 * i);
        return v;
    };
    if (read32(8) != SnapshotWriter::version)
        return false;
    std::uint32_t len = read32(12);
    std::uint32_t crc = read32(16);
    if (image.size() != headerSize + len)
        return false;
    if (crc32(image.data() + headerSize, len) != crc)
        return false;
    payload.assign(image.begin() + headerSize, image.end());
    fail_ = false;
    return true;
}

bool
SnapshotReader::loadFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::vector<std::uint8_t> image(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return load(std::move(image));
}

bool
SnapshotReader::need(std::size_t n)
{
    if (fail_ || payload.size() - pos < n) {
        fail_ = true;
        return false;
    }
    return true;
}

std::uint8_t
SnapshotReader::u8()
{
    if (!need(1))
        return 0;
    return payload[pos++];
}

std::uint32_t
SnapshotReader::u32()
{
    if (!need(4))
        return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(payload[pos + i]) << (8 * i);
    pos += 4;
    return v;
}

std::uint64_t
SnapshotReader::u64()
{
    if (!need(8))
        return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(payload[pos + i]) << (8 * i);
    pos += 8;
    return v;
}

double
SnapshotReader::f64()
{
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::vector<std::uint8_t>
SnapshotReader::blob()
{
    std::uint64_t len = u64();
    std::vector<std::uint8_t> out;
    if (!need(len))
        return out;
    out.assign(payload.begin() + static_cast<std::ptrdiff_t>(pos),
               payload.begin() + static_cast<std::ptrdiff_t>(pos + len));
    pos += len;
    return out;
}

bool
SnapshotReader::section(const char *tag)
{
    std::size_t want = std::strlen(tag);
    if (u8() != sectionMark) {
        fail_ = true;
        return false;
    }
    std::size_t len = u8();
    if (len != want || !need(len)) {
        fail_ = true;
        return false;
    }
    if (std::memcmp(payload.data() + pos, tag, len) != 0) {
        fail_ = true;
        return false;
    }
    pos += len;
    return true;
}

void
SnapshotReader::rng(Rng &r)
{
    section("rng");
    Mt64::State s{};
    for (std::uint64_t &w : s.state)
        w = u64();
    for (std::uint64_t &w : s.out)
        w = u64();
    s.index = u32();
    if (ok())
        r.importState(s);
}

void
SnapshotReader::blob(void *out, std::size_t len)
{
    std::uint64_t saved = u64();
    if (ok() && saved != len)
        invalidate();
    if (!need(len))
        return;
    std::memcpy(out, payload.data() + pos, len);
    pos += len;
}

void
SnapshotReader::optionalF64(std::optional<double> &v)
{
    bool has = boolean();
    double value = f64();
    if (ok())
        v = has ? std::optional<double>(value) : std::nullopt;
}

std::uint32_t
SnapshotReader::count()
{
    std::uint32_t n = u32();
    if (ok() && n > payload.size() - pos)
        invalidate();
    return ok() ? n : 0;
}

bool
SnapshotReader::canRearm()
{
    if (ok() && !rearmer_)
        invalidate();
    return ok();
}

void
SnapshotReader::rearm(EventQueue::Callback cb,
                      std::function<void(EventId, Tick)> assign)
{
    if (!boolean())
        return;
    EventId savedId = u64();
    Tick when = tick();
    if (ok())
        rearmer_->add(savedId, when, std::move(cb), std::move(assign));
}

void
SnapshotReader::event(EventId &id, Tick &due, EventQueue::Callback cb)
{
    if (!canRearm())
        return;
    rearmer_->cancel(id);
    rearm(std::move(cb), [&id, &due](EventId fresh, Tick when) {
        id = fresh;
        due = when;
    });
}

void
SnapshotReader::events(std::vector<std::pair<EventId, Tick>> &list,
                       Tick after, EventQueue::Callback cb)
{
    if (!canRearm())
        return;
    for (auto &[id, due] : list) {
        if (due > after)
            rearmer_->cancel(id);
    }
    list.clear();
    std::uint32_t n = count();
    for (std::uint32_t i = 0; i < n && ok(); ++i)
        rearm(cb, [&list](EventId fresh, Tick when) {
            list.emplace_back(fresh, when);
        });
}

void
EventRearmer::flush()
{
    std::sort(pending.begin(), pending.end(),
              [](const Pending &a, const Pending &b) {
                  return a.savedId < b.savedId;
              });
    for (auto &p : pending) {
        EventId fresh = sim_.schedule(p.when, std::move(p.cb));
        if (p.assign)
            p.assign(fresh, p.when);
    }
    pending.clear();
}

} // namespace edb::sim
