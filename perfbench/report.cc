#include "report.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

namespace edb::perfbench {

namespace {

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** Text that reads back as the same double (17 significant digits). */
std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

bool
validName(const std::string &name)
{
    if (name.empty())
        return false;
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                        c == '-';
        if (!ok)
            return false;
    }
    return true;
}

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point origin = clock::now();
    return std::chrono::duration<double>(clock::now() - origin).count();
}

double
Samples::sum() const
{
    double s = 0.0;
    for (double v : values)
        s += v;
    return s;
}

std::size_t
Samples::beyond(std::size_t n, double q)
{
    return static_cast<std::size_t>(
        std::floor(static_cast<double>(n) * std::min(q, 1.0 - q) + 1e-9));
}

std::size_t
Samples::needed(double q)
{
    std::size_t n = 1;
    while (beyond(n, q) < 10)
        ++n;
    return n;
}

std::optional<double>
Samples::percentile(double q) const
{
    if (values.empty() || beyond(values.size(), q) < 10)
        return std::nullopt;
    std::vector<double> s = values;
    std::sort(s.begin(), s.end());
    // Nearest rank: the smallest sample with at least q*n at or
    // below it.
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(s.size()) - 1e-9));
    if (rank == 0)
        rank = 1;
    return s[rank - 1];
}

double
Samples::quantile(double q) const
{
    if (values.empty())
        return 0.0;
    std::vector<double> s = values;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
}

int
Spans::begin(const std::string &name, int run)
{
    if (!recording())
        return -1;
    Span s;
    s.name = name;
    s.start = nowSeconds();
    s.parent = open.empty() ? -1 : open.back();
    s.run = run;
    list.push_back(std::move(s));
    const int index = static_cast<int>(list.size() - 1);
    open.push_back(index);
    return index;
}

void
Spans::end(int index)
{
    if (index < 0)
        return;
    list[static_cast<std::size_t>(index)].end = nowSeconds();
    // Scopes close innermost-first; tolerate an out-of-order close
    // by dropping everything above it.
    while (!open.empty()) {
        const int top = open.back();
        open.pop_back();
        if (top == index)
            break;
    }
}

void
Spans::add(const std::string &name, double start, double end,
           int parent, int run)
{
    if (!recording())
        return;
    list.push_back(Span{name, start, end, parent, run});
}

std::map<std::string, Spans::Summary>
Spans::summarize() const
{
    std::vector<double> childMs(list.size(), 0.0);
    for (const Span &s : list)
        if (s.parent >= 0)
            childMs[static_cast<std::size_t>(s.parent)] +=
                (s.end - s.start) * 1e3;
    std::map<std::string, Summary> out;
    for (std::size_t i = 0; i < list.size(); ++i) {
        const double ms = (list[i].end - list[i].start) * 1e3;
        Summary &sum = out[list[i].name];
        ++sum.count;
        sum.totalMs += ms;
        sum.selfMs += ms - childMs[i];
    }
    return out;
}

bool
Spans::writeChrome(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < list.size(); ++i) {
        const Span &s = list[i];
        f << (i ? ",\n" : "\n") << "{\"name\":" << quoted(s.name)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.run
          << ",\"ts\":" << number(s.start * 1e6)
          << ",\"dur\":" << number((s.end - s.start) * 1e6)
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"run\":" << s.run << "}}";
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit, std::uint64_t n,
               const std::string &base)
{
    if (!validName(name) || unit.empty()) {
        std::fprintf(stderr, "perfbench: bad metric name '%s'\n",
                     name.c_str());
        std::abort();
    }
    metrics_[name] = Metric{value, unit, n, base};
}

bool
Report::percentile(const std::string &name, const Samples &s, double q,
                   const std::string &unit, const std::string &base)
{
    std::optional<double> v = s.percentile(q);
    if (!v) {
        check("samples." + name, false,
              std::to_string(s.n()) + " samples, " +
                  std::to_string(Samples::needed(q)) + " needed");
        return false;
    }
    metric(name, *v, unit, s.n(), base);
    return true;
}

void
Report::count(const std::string &name, std::uint64_t value)
{
    if (!validName(name)) {
        std::fprintf(stderr, "perfbench: bad count name '%s'\n",
                     name.c_str());
        std::abort();
    }
    counts_[name] = value;
}

void
Report::check(const std::string &name, bool ok,
              const std::string &detail)
{
    checks_.push_back(Check{name, ok, detail});
    ++attempted_;
    if (!ok)
        ++failed_;
}

bool
Report::correct() const
{
    for (const Check &c : checks_)
        if (!c.ok)
            return false;
    return failed_ == 0;
}

void
Report::print(const Spans &spans) const
{
    std::printf("perfbench workload=%s seed=%llu trace=%d\n",
                workload_.c_str(),
                static_cast<unsigned long long>(seed_), traced_ ? 1 : 0);
    for (const auto &[name, m] : metrics_) {
        std::printf("  %-40s %14.6g %-10s", name.c_str(), m.value,
                    m.unit.c_str());
        if (m.n)
            std::printf(" n=%llu", static_cast<unsigned long long>(m.n));
        if (!m.base.empty())
            std::printf(" base=%s", m.base.c_str());
        std::printf("\n");
    }
    for (const Check &c : checks_)
        if (!c.ok)
            std::printf("  CHECK FAILED %s: %s\n", c.name.c_str(),
                        c.detail.c_str());

    std::ostringstream o;
    o << "{\"workload\":" << quoted(workload_) << ",\"seed\":" << seed_
      << ",\"trace\":" << (traced_ ? 1 : 0)
      << ",\"correct\":" << (correct() ? "true" : "false")
      << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
      << ",\"metrics\":{";
    bool first = true;
    for (const auto &[name, m] : metrics_) {
        o << (first ? "" : ",") << quoted(name) << ":{\"value\":"
          << number(m.value) << ",\"unit\":" << quoted(m.unit)
          << ",\"n\":" << m.n;
        if (!m.base.empty())
            o << ",\"base\":" << quoted(m.base);
        o << "}";
        first = false;
    }
    o << "},\"counts\":{";
    first = true;
    for (const auto &[name, v] : counts_) {
        o << (first ? "" : ",") << quoted(name) << ":" << v;
        first = false;
    }
    o << "},\"checks\":{";
    first = true;
    for (const Check &c : checks_) {
        o << (first ? "" : ",") << quoted(c.name) << ":{\"ok\":"
          << (c.ok ? "true" : "false") << ",\"detail\":"
          << quoted(c.detail) << "}";
        first = false;
    }
    o << "},\"spans\":{";
    first = true;
    for (const auto &[name, s] : spans.summarize()) {
        o << (first ? "" : ",") << quoted(name) << ":{\"count\":"
          << s.count << ",\"total_ms\":" << number(s.totalMs)
          << ",\"self_ms\":" << number(s.selfMs) << "}";
        first = false;
    }
    o << "}}";
    std::printf("PERFBENCH_RECORD %s\n", o.str().c_str());
    std::fflush(stdout);
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace edb::perfbench
