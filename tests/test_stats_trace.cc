/**
 * @file
 * Unit tests for statistics accumulators and the trace buffer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "sim/rng.hh"
#include "sim/logging.hh"
#include "trace/stats.hh"
#include "trace/trace.hh"

using namespace edb;
using namespace edb::trace;

namespace {

TEST(Summary, KnownValues)
{
    Summary s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, EmptyAndSingle)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
    s.add(3.5);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_EQ(s.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 3.5);
    EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(Summary, NegativeValues)
{
    Summary s;
    s.add(-5.0);
    s.add(5.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), -5.0);
}

TEST(SampleSet, QuantilesOfKnownSet)
{
    SampleSet s;
    for (int i = 1; i <= 100; ++i)
        s.add(i);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
    EXPECT_NEAR(s.median(), 50.5, 1e-9);
    EXPECT_NEAR(s.quantile(0.25), 25.75, 1e-9);
}

TEST(SampleSet, QuantileInterpolates)
{
    SampleSet s;
    s.add(0.0);
    s.add(10.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.9), 9.0);
}

TEST(SampleSet, EmptyIsSafe)
{
    SampleSet s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.quantile(0.5), 0.0);
    EXPECT_EQ(s.cdfAt(1.0), 0.0);
    EXPECT_TRUE(s.cdfSeries(10).empty());
}

TEST(SampleSet, CdfMonotonic)
{
    SampleSet s;
    edb::sim::Rng rng(5);
    for (int i = 0; i < 500; ++i)
        s.add(rng.gaussian(1.0));
    double prev = -1.0;
    for (auto [x, p] : s.cdfSeries(50)) {
        EXPECT_GE(p, prev);
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
        prev = p;
    }
    EXPECT_DOUBLE_EQ(s.cdfAt(s.quantile(1.0)), 1.0);
}

TEST(SampleSet, CdfAtCountsInclusively)
{
    SampleSet s;
    s.add(1.0);
    s.add(2.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.cdfAt(0.5), 0.0);
    EXPECT_NEAR(s.cdfAt(2.0), 2.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.cdfAt(10.0), 1.0);
}

TEST(SampleSet, SortedAfterInterleavedQueries)
{
    SampleSet s;
    s.add(3.0);
    s.add(1.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
    s.add(0.5); // add after a query re-sorts lazily
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.5);
    EXPECT_EQ(s.count(), 3u);
}

TEST(TraceBuffer, RecordsInOrderWithKinds)
{
    TraceBuffer buffer;
    buffer.push(10, Kind::EnergySample, 2.4);
    buffer.push(20, Kind::Watchpoint, 2.3, 0.0, 7);
    buffer.push(30, Kind::EnergySample, 2.2);
    EXPECT_EQ(buffer.all().size(), 3u);
    EXPECT_EQ(buffer.countOf(Kind::EnergySample), 2u);
    auto wps = buffer.ofKind(Kind::Watchpoint);
    ASSERT_EQ(wps.size(), 1u);
    EXPECT_EQ(wps[0].id, 7u);
    EXPECT_DOUBLE_EQ(wps[0].a, 2.3);
}

TEST(TraceBuffer, TapStreamsEvenWhenDisabled)
{
    TraceBuffer buffer;
    int taps = 0;
    buffer.setTap([&taps](const Record &) { ++taps; });
    buffer.setEnabled(false);
    buffer.push(1, Kind::Printf, 0, 0, 0, "hi");
    EXPECT_EQ(taps, 1);
    EXPECT_TRUE(buffer.all().empty());
    buffer.setEnabled(true);
    buffer.push(2, Kind::Printf);
    EXPECT_EQ(buffer.all().size(), 1u);
    EXPECT_EQ(taps, 2);
}

TEST(TraceBuffer, ClearEmpties)
{
    TraceBuffer buffer;
    buffer.push(1, Kind::Generic);
    buffer.clear();
    EXPECT_TRUE(buffer.all().empty());
}

TEST(TraceBuffer, CsvEscapesDelimiters)
{
    TraceBuffer buffer;
    buffer.push(sim::oneMs, Kind::Printf, 1.5, 0.0, 3, "a,b\nc");
    std::ostringstream oss;
    buffer.writeCsv(oss);
    std::string csv = oss.str();
    EXPECT_NE(csv.find("time_ms,kind,id,a,b,text"),
              std::string::npos);
    EXPECT_NE(csv.find("1,printf,3,1.5,0,a;b c"), std::string::npos);
}

TEST(TraceKinds, NamesAreStable)
{
    EXPECT_STREQ(kindName(Kind::EnergySample), "energy");
    EXPECT_STREQ(kindName(Kind::Watchpoint), "watchpoint");
    EXPECT_STREQ(kindName(Kind::RfidMessage), "rfid");
    EXPECT_STREQ(kindName(Kind::AssertFail), "assert");
    EXPECT_STREQ(kindName(Kind::EnergyGuard), "energy_guard");
    EXPECT_STREQ(kindName(Kind::PowerEvent), "power");
}

} // namespace
