// Coverage of the metric-descriptor table: every row renders in every
// format it belongs to, so no format can silently miss a metric.

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "server/metrics.h"
#include "tests/server/metrics_fixture.h"

namespace impatience {
namespace server {
namespace {

std::string UnitSuffix(const MetricDef& def, bool prometheus) {
  if (def.unit == MetricUnit::kNone) return "";
  return prometheus ? "_nanoseconds" : "_ns";
}

std::string PromType(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "summary";
  }
  return "";
}

// Every row's name appears in text (session rows excepted: text has no
// per-session series), in Prometheus with its # HELP and # TYPE lines
// (histograms also as the _hist histogram sibling), and as a JSON key.
TEST(MetricsTableTest, EveryRowRendersInEveryFormat) {
  const ServerMetrics m = MakeMetrics();
  const std::string text = "\n" + RenderMetricsText(m);
  const std::string prom = RenderMetricsPrometheus(m);
  const std::string json = RenderMetricsJson(m);

  std::set<std::string> names;
  for (const MetricDef& def : MetricTable()) {
    SCOPED_TRACE(def.name);
    EXPECT_TRUE(names.insert(def.name).second) << "duplicate row";

    if (def.scope != MetricScope::kSession) {
      const std::string line = "\n" + std::string(def.name) +
                               UnitSuffix(def, false);
      EXPECT_TRUE(text.find(line + " ") != std::string::npos ||
                  text.find(line + "{") != std::string::npos);
    }

    const std::string prom_name = def.name + UnitSuffix(def, true);
    EXPECT_NE(prom.find("# HELP " + prom_name + " " + def.help + "\n"),
              std::string::npos);
    EXPECT_NE(prom.find("# TYPE " + prom_name + " " + PromType(def.type) +
                        "\n"),
              std::string::npos);
    if (def.type == MetricType::kHistogram) {
      EXPECT_NE(prom.find("# TYPE " + prom_name + "_hist histogram\n"),
                std::string::npos);
    }

    EXPECT_NE(json.find("\"" + std::string(MetricJsonKey(def)) +
                        UnitSuffix(def, false) + "\":"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace server
}  // namespace impatience
