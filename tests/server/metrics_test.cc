#include "server/metrics.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace youtopia {
namespace {

// The sample value of `name` on a Prometheus text page, or -1 if absent.
double Sample(const std::string& page, const std::string& name) {
  const std::string line = "\n" + name + " ";
  const size_t at = page.find(line);
  if (at == std::string::npos) return -1;
  return std::strtod(page.c_str() + at + line.size(), nullptr);
}

TEST(EngineMetricsTest, ExportsCurrentAndPeakResidentMemory) {
  Youtopia db;
  std::string page;
  AppendEngineMetrics(db, &page);
  const double rss = Sample(page, "process_resident_memory_bytes");
  const double peak = Sample(page, "youtopia_process_peak_resident_bytes");
  EXPECT_GT(rss, 0) << page;
  EXPECT_GT(peak, 0) << page;
  EXPECT_GE(peak, rss);
}

TEST(EngineMetricsTest, ExportsMvccClockWatermarkAndSnapshots) {
  Youtopia db;
  ASSERT_TRUE(db.ExecuteScript("CREATE TABLE t (v INT);"
                               "INSERT INTO t VALUES (1);"
                               "INSERT INTO t VALUES (2);")
                  .ok());
  const MvccController& mvcc = db.storage().mvcc();
  SnapshotHandle snap(&db.storage().mvcc());
  std::string page;
  AppendEngineMetrics(db, &page);
  // Two committed inserts advanced the clock; nothing is in flight, so
  // the watermark has caught up with it.
  EXPECT_GE(Sample(page, "youtopia_mvcc_clock"), kBaseTs + 2.0) << page;
  EXPECT_EQ(Sample(page, "youtopia_mvcc_clock"),
            static_cast<double>(mvcc.clock()));
  EXPECT_EQ(Sample(page, "youtopia_mvcc_watermark"),
            static_cast<double>(mvcc.watermark()));
  EXPECT_EQ(Sample(page, "youtopia_mvcc_watermark"),
            Sample(page, "youtopia_mvcc_clock"));
  EXPECT_EQ(Sample(page, "youtopia_mvcc_active_snapshots"), 1) << page;

  snap.Release();
  page.clear();
  AppendEngineMetrics(db, &page);
  EXPECT_EQ(Sample(page, "youtopia_mvcc_active_snapshots"), 0) << page;
}

}  // namespace
}  // namespace youtopia
