/**
 * @file
 * Self-tests of the benchmark's bookkeeping: the metric-name grammar,
 * the ten-samples-beyond percentile rule and the span recorder. Exits
 * nonzero on the first failed expectation; run by test_perfbench.py.
 */

#include <cstdio>
#include <string>

#include "report.hh"

using namespace edb::perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::printf("FAIL: %s\n", what);
        ++failures;
    }
}

Samples
ramp(int n)
{
    // n..1 descending, so sorting matters.
    Samples s;
    for (int i = n; i >= 1; --i)
        s.add(i);
    return s;
}

void
nameGrammar()
{
    for (const char *good :
         {"a", "setup_s", "mcu.ns_per_instr.default", "edb.rpc.willComplete_ms_p50",
          "energy.advance_ns_per_sim_us.on", "x-y", "0p"})
        expect(validName(good), good);
    for (const char *bad : {"", "a b", "a/b", "a:b", "a\"b", "ms\n", "\xc3\xa4"})
        expect(!validName(bad), "rejects a name outside [A-Za-z0-9_.-]+");
}

void
percentileRule()
{
    expect(Samples::needed(0.5) == 20, "p50 needs 20 samples");
    expect(Samples::needed(0.9) == 100, "p90 needs 100 samples");
    expect(Samples::needed(0.99) == 1000, "p99 needs 1000 samples");
    expect(Samples::beyond(20, 0.5) == 10, "20 samples: 10 beyond p50");
    expect(Samples::beyond(109, 0.9) == 10, "109 samples: 10 beyond p90");
    expect(Samples::needed(0.1) == 100, "p10 needs 100 samples");
    expect(Samples::beyond(109, 0.1) == 10, "109 samples: 10 below p10");

    expect(!ramp(19).percentile(0.5), "p50 withheld at 19 samples");
    auto p50 = ramp(20).percentile(0.5);
    expect(p50 && *p50 == 10.0, "p50 of 1..20 is the 10th value");
    expect(!ramp(99).percentile(0.9), "p90 withheld at 99 samples");
    auto p90 = ramp(100).percentile(0.9);
    expect(p90 && *p90 == 90.0, "p90 of 1..100 is the 90th value");
    expect(!ramp(999).percentile(0.99), "p99 withheld at 999 samples");
    auto p99 = ramp(1000).percentile(0.99);
    expect(p99 && *p99 == 990.0, "p99 of 1..1000 is the 990th value");
    expect(!ramp(99).percentile(0.1), "p10 withheld at 99 samples");
    auto p10 = ramp(100).percentile(0.1);
    expect(p10 && *p10 == 10.0, "p10 of 1..100 is the 10th value");
    expect(ramp(4).median() == 2.5, "plain median of 1..4");

    Report rep("selftest", 1, false);
    expect(!rep.percentile("x_ms_p90", ramp(50), 0.9, "ms"),
           "short percentile is refused");
    expect(!rep.correct(), "a refused percentile fails the run");
    expect(rep.metrics().count("x_ms_p90") == 0, "and is not reported");
}

void
spans()
{
    Spans off(false);
    {
        Spans::Scope s(off, "outer", 0);
    }
    expect(off.size() == 0, "disabled recorder keeps nothing");

    Spans on(true);
    {
        Spans::Scope outer(on, "outer", 0);
        Spans::Scope inner(on, "inner", 0);
    }
    on.setPaused(true);
    {
        Spans::Scope s(on, "paused", 0);
    }
    on.setPaused(false);
    expect(on.size() == 2, "paused spans are not kept");
    auto sum = on.summarize();
    expect(sum.count("outer") && sum.count("inner"), "both spans summarized");
    expect(sum["outer"].selfMs <= sum["outer"].totalMs,
           "self time excludes the child");
    expect(sum["outer"].totalMs >= sum["inner"].totalMs,
           "the parent covers its child");
}

} // namespace

int
main()
{
    nameGrammar();
    percentileRule();
    spans();
    std::printf("%s (%d failures)\n", failures ? "SELFTEST FAIL" : "SELFTEST PASS",
                failures);
    return failures ? 1 : 0;
}
