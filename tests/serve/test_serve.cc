/** @file End-to-end tests for the open-loop serving study. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/serve.hh"

using namespace ppa;
using namespace ppa::serve;

namespace
{

ServeConfig
smallConfig()
{
    ServeConfig cfg;
    cfg.workload = ServeWorkload::Tatp;
    cfg.requests = 240;
    cfg.threads = 2;
    cfg.keys = 256;
    cfg.skew = 0.9;
    cfg.arrival.meanGap = 64.0;
    cfg.failures = 4;
    cfg.seed = 11;
    return cfg;
}

void
checkCommonInvariants(const ServeConfig &cfg,
                      const ServeVariantStats &s)
{
    std::string tag = serveVariantToken(s.variant);
    EXPECT_EQ(s.requests, cfg.requests) << tag;
    EXPECT_EQ(s.completed, cfg.requests) << tag;
    EXPECT_GT(s.serviceCycles, 0u) << tag;
    EXPECT_GT(s.committedInsts, 0u) << tag;
    EXPECT_GT(s.committedStores, 0u) << tag;
    EXPECT_GT(s.achievedPerKcycle, 0.0) << tag;
    EXPECT_GT(s.offeredPerKcycle, 0.0) << tag;

    EXPECT_EQ(s.latency.count(), cfg.requests) << tag;
    std::uint64_t prev = 0;
    for (double f : {0.50, 0.95, 0.99, 0.999, 0.9999}) {
        std::uint64_t p = s.latency.percentile(f);
        EXPECT_GE(p, prev) << tag << " frac " << f;
        prev = p;
    }
    EXPECT_LE(prev, s.latency.max()) << tag;

    ASSERT_EQ(s.failures.size(), cfg.failures) << tag;
    Cycle prev_cycle = 0;
    for (const FailurePoint &fp : s.failures) {
        EXPECT_GT(fp.cycle, prev_cycle) << tag;
        prev_cycle = fp.cycle;
        EXPECT_GT(fp.recoveryCycles, 0u) << tag;
        EXPECT_EQ(fp.durableRequests + fp.lostRequests,
                  fp.completedRequests)
            << tag << " cycle " << fp.cycle;
        EXPECT_LE(fp.lossWindow, fp.cycle)
            << tag << " cycle " << fp.cycle;
        EXPECT_LE(fp.completedRequests, cfg.requests) << tag;
    }
    // The last crash point sits deep in the run: work completed.
    EXPECT_GT(s.failures.back().completedRequests, 0u) << tag;
}

} // namespace

TEST(Serve, VariantTokensRoundTrip)
{
    for (ServeVariant v : allServeVariants()) {
        ServeVariant parsed;
        ASSERT_TRUE(serveVariantFromToken(serveVariantToken(v), parsed));
        EXPECT_EQ(parsed, v);
    }
    ServeVariant v;
    EXPECT_FALSE(serveVariantFromToken("eadr", v));
    EXPECT_EQ(allServeVariants().size(), 3u);
}

TEST(Serve, PpaVariantCompletesWithNoInjectedInstructions)
{
    ServeConfig cfg = smallConfig();
    ServeVariantStats s = runServeVariant(cfg, ServeVariant::Ppa);
    checkCommonInvariants(cfg, s);
    EXPECT_EQ(s.injectedClwbs, 0u);
    EXPECT_EQ(s.injectedFences, 0u);
    EXPECT_EQ(s.injectedLogStores, 0u);
    EXPECT_GT(s.nvmWrites, 0u);
}

TEST(Serve, UndoRedoLogInjectsLoggingTraffic)
{
    ServeConfig cfg = smallConfig();
    ServeVariantStats s =
        runServeVariant(cfg, ServeVariant::UndoRedoLog);
    checkCommonInvariants(cfg, s);
    // Every data store is shadowed (tatp: 2 per request) and every
    // commit adds a record clwb and two fences.
    EXPECT_EQ(s.injectedLogStores, cfg.requests * 2);
    EXPECT_EQ(s.injectedFences, cfg.requests * 2);
    EXPECT_EQ(s.injectedClwbs, cfg.requests * 3);
}

TEST(Serve, DelayFreeInjectsFlushOnlyTraffic)
{
    ServeConfig cfg = smallConfig();
    ServeVariantStats s = runServeVariant(cfg, ServeVariant::DelayFree);
    checkCommonInvariants(cfg, s);
    EXPECT_EQ(s.injectedLogStores, 0u);
    EXPECT_EQ(s.injectedFences, cfg.requests);
    // clwb per data store plus one per publish.
    EXPECT_EQ(s.injectedClwbs, cfg.requests * 3);
}

TEST(Serve, SoftwareDurabilityCostsThroughput)
{
    // The study's headline: the same offered load costs the software
    // schemes more cycles per request than hardware persistence.
    ServeConfig cfg = smallConfig();
    cfg.failures = 0;
    ServeVariantStats ppa = runServeVariant(cfg, ServeVariant::Ppa);
    ServeVariantStats log =
        runServeVariant(cfg, ServeVariant::UndoRedoLog);
    EXPECT_GT(log.serviceCycles, ppa.serviceCycles);
}

TEST(Serve, StudyIsDeterministic)
{
    ServeConfig cfg = smallConfig();
    cfg.failures = 2;
    ServeStats a = runServeStudy(cfg, allServeVariants());
    ServeStats b = runServeStudy(cfg, allServeVariants());
    EXPECT_EQ(serveToJson(a), serveToJson(b));
}

TEST(Serve, WorkerCountNeverChangesResults)
{
    // The serial == parallel bitwise contract: variants are stored by
    // index, so the host pool size is invisible.
    ServeConfig serial = smallConfig();
    serial.workers = 1;
    ServeConfig wide = smallConfig();
    wide.workers = 8;
    ServeStats a = runServeStudy(serial, allServeVariants());
    ServeStats b = runServeStudy(wide, allServeVariants());
    ASSERT_EQ(b.variants.size(), allServeVariants().size());
    // workers is scheduling metadata: not echoed into the JSON, and
    // the measured document is bitwise identical.
    EXPECT_EQ(serveToJson(a), serveToJson(b));
}

TEST(Serve, KvWorkloadServes)
{
    ServeConfig cfg = smallConfig();
    cfg.workload = ServeWorkload::Kv;
    cfg.readPct = 50;
    cfg.failures = 2;
    ServeVariantStats s = runServeVariant(cfg, ServeVariant::Ppa);
    checkCommonInvariants(cfg, s);
}

TEST(Serve, JsonDocumentShape)
{
    ServeConfig cfg = smallConfig();
    cfg.failures = 2;
    ServeStats stats = runServeStudy(cfg, {ServeVariant::Ppa});
    std::string json = serveToJson(stats);
    // Additive schema-v1 document of kind "serve"; per-variant metrics
    // under stats.serve (docs/METRICS.md).
    EXPECT_NE(json.find("\"schemaVersion\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"serve\""), std::string::npos);
    EXPECT_NE(json.find("\"variants\": ["), std::string::npos);
    EXPECT_NE(json.find("\"serve\": {"), std::string::npos);
    EXPECT_NE(json.find("\"p999\""), std::string::npos);
    EXPECT_NE(json.find("\"p9999\""), std::string::npos);
    EXPECT_NE(json.find("\"lossWindow\""), std::string::npos);
    EXPECT_NE(json.find("\"recovery\""), std::string::npos);
    // Scheduling metadata must not leak into the measured document.
    EXPECT_EQ(json.find("\"workers\""), std::string::npos);
    // No telemetry requested: the key is absent, not empty.
    EXPECT_EQ(json.find("\"telemetry\""), std::string::npos);
}

TEST(Serve, TelemetryCarriesRequestSpans)
{
    ServeConfig cfg = smallConfig();
    cfg.requests = 120;
    cfg.failures = 0;
    cfg.telemetry = true;
    ServeVariantStats s = runServeVariant(cfg, ServeVariant::Ppa);
    ASSERT_FALSE(s.telemetry.requestSpans.empty());
    EXPECT_LE(s.telemetry.requestSpans.size(),
              static_cast<std::size_t>(obs::kRequestSpanCap));
    for (const obs::TelemetryRequestSpan &span :
         s.telemetry.requestSpans) {
        EXPECT_LT(span.core, cfg.threads);
        EXPECT_GE(span.start, span.arrival);
        EXPECT_GE(span.finish, span.start);
    }
}
