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

}  // namespace
}  // namespace youtopia
