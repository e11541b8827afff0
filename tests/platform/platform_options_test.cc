#include "platform/platform_options.h"

#include <gtest/gtest.h>

namespace cyclerank {
namespace {

TEST(PlatformOptionsTest, EmptyStringYieldsDefaults) {
  const PlatformOptions parsed = PlatformOptions::FromString("").value();
  EXPECT_EQ(parsed, PlatformOptions{});
  EXPECT_EQ(parsed.graph_store_bytes, 0u);
  EXPECT_EQ(parsed.result_cache_bytes, ResultCache::kDefaultMaxBytes);
  EXPECT_EQ(parsed.max_retained_results, 0u);
  EXPECT_EQ(parsed.num_workers, 0u);
  EXPECT_EQ(parsed.default_threads, 0u);
  EXPECT_EQ(parsed.uuid_seed, 0u);
  EXPECT_EQ(parsed.max_tasks_per_submission, 0u);
  EXPECT_EQ(parsed.spill_dir, "");
  EXPECT_EQ(parsed.graph_spill_bytes, 0u);
  EXPECT_EQ(parsed.result_spill_bytes, 0u);
  EXPECT_EQ(parsed.spill_write_behind_bytes, 32u << 20);
  EXPECT_TRUE(parsed.spill_compression);
}

TEST(PlatformOptionsTest, ParsesEveryKnob) {
  const PlatformOptions parsed =
      PlatformOptions::FromString(
          "graph_store_bytes=1000, result_cache_bytes=2000, "
          "max_retained_results=30, num_workers=4, default_threads=2, "
          "uuid_seed=99, max_tasks_per_submission=16, "
          "spill_dir=/tmp/spill, graph_spill_bytes=4000, "
          "result_spill_bytes=5000, spill_write_behind_bytes=6000, "
          "spill_compression=false")
          .value();
  EXPECT_EQ(parsed.graph_store_bytes, 1000u);
  EXPECT_EQ(parsed.result_cache_bytes, 2000u);
  EXPECT_EQ(parsed.max_retained_results, 30u);
  EXPECT_EQ(parsed.num_workers, 4u);
  EXPECT_EQ(parsed.default_threads, 2u);
  EXPECT_EQ(parsed.uuid_seed, 99u);
  EXPECT_EQ(parsed.max_tasks_per_submission, 16u);
  EXPECT_EQ(parsed.spill_dir, "/tmp/spill");
  EXPECT_EQ(parsed.graph_spill_bytes, 4000u);
  EXPECT_EQ(parsed.result_spill_bytes, 5000u);
  EXPECT_EQ(parsed.spill_write_behind_bytes, 6000u);
  EXPECT_FALSE(parsed.spill_compression);
}

TEST(PlatformOptionsTest, KeysAreCaseInsensitiveAndWhitespaceTolerant) {
  const PlatformOptions parsed =
      PlatformOptions::FromString("  NUM_WORKERS = 8 ;  Uuid_Seed=5  ")
          .value();
  EXPECT_EQ(parsed.num_workers, 8u);
  EXPECT_EQ(parsed.uuid_seed, 5u);
}

TEST(PlatformOptionsTest, ByteKnobsAcceptBinarySuffixes) {
  EXPECT_EQ(PlatformOptions::FromString("graph_store_bytes=64m")
                .value()
                .graph_store_bytes,
            64u << 20);
  EXPECT_EQ(PlatformOptions::FromString("graph_store_bytes=64MiB")
                .value()
                .graph_store_bytes,
            64u << 20);
  EXPECT_EQ(PlatformOptions::FromString("result_cache_bytes=2k")
                .value()
                .result_cache_bytes,
            2048u);
  EXPECT_EQ(PlatformOptions::FromString("result_cache_bytes=1gb")
                .value()
                .result_cache_bytes,
            1u << 30);
}

TEST(PlatformOptionsTest, RoundTripsThroughToString) {
  PlatformOptions options;
  options.graph_store_bytes = 123456;
  options.result_cache_bytes = 0;
  options.max_retained_results = 77;
  options.num_workers = 3;
  options.default_threads = 5;
  options.uuid_seed = 42;
  options.max_tasks_per_submission = 9;
  options.spill_dir = "/var/tmp/cyclerank-spill";
  options.graph_spill_bytes = 1u << 20;
  options.result_spill_bytes = 2u << 20;
  options.spill_write_behind_bytes = 0;  // synchronous spilling
  options.spill_compression = false;
  const PlatformOptions reparsed =
      PlatformOptions::FromString(options.ToString()).value();
  EXPECT_EQ(reparsed, options);
  // Defaults round-trip too.
  EXPECT_EQ(PlatformOptions::FromString(PlatformOptions{}.ToString()).value(),
            PlatformOptions{});
  // The full uint64 seed range round-trips (a randomly drawn seed can
  // exceed int64's range).
  options.uuid_seed = 18446744073709551615ull;  // 2^64 - 1
  EXPECT_EQ(PlatformOptions::FromString(options.ToString()).value(), options);
}

TEST(PlatformOptionsTest, UnknownKeysRejected) {
  const auto result = PlatformOptions::FromString("graph_store_byte=1g");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("graph_store_byte"),
            std::string::npos);
  EXPECT_FALSE(PlatformOptions::FromString("threads=4").ok());
  EXPECT_FALSE(PlatformOptions::FromString("num_shards=4").ok());
}

TEST(PlatformOptionsTest, MalformedValuesRejected) {
  EXPECT_FALSE(PlatformOptions::FromString("num_workers=-1").ok());
  EXPECT_FALSE(PlatformOptions::FromString("num_workers=abc").ok());
  EXPECT_FALSE(PlatformOptions::FromString("graph_store_bytes=10q").ok());
  EXPECT_FALSE(PlatformOptions::FromString("graph_store_bytes=m").ok());
  EXPECT_FALSE(PlatformOptions::FromString("uuid_seed=-3").ok());
  EXPECT_FALSE(PlatformOptions::FromString("default_threads=4294967296").ok());
  EXPECT_FALSE(PlatformOptions::FromString("num_workers").ok());
}

TEST(PlatformOptionsTest, DuplicateKeysRejected) {
  EXPECT_FALSE(
      PlatformOptions::FromString("num_workers=2, num_workers=3").ok());
}

TEST(PlatformOptionsTest, SpillKnobsParse) {
  // Byte suffixes work on the spill budgets like on every byte knob.
  EXPECT_EQ(PlatformOptions::FromString("graph_spill_bytes=64m")
                .value()
                .graph_spill_bytes,
            64u << 20);
  EXPECT_EQ(PlatformOptions::FromString("result_spill_bytes=2k")
                .value()
                .result_spill_bytes,
            2048u);
  EXPECT_FALSE(PlatformOptions::FromString("graph_spill_bytes=abc").ok());
  // An explicitly empty spill_dir parses to the disabled default.
  EXPECT_EQ(PlatformOptions::FromString("spill_dir=").value().spill_dir, "");
}

TEST(PlatformOptionsTest, LsmKnobsParse) {
  // The write-behind bound takes byte suffixes; 0 means synchronous.
  EXPECT_EQ(PlatformOptions::FromString("spill_write_behind_bytes=8m")
                .value()
                .spill_write_behind_bytes,
            8u << 20);
  EXPECT_EQ(PlatformOptions::FromString("spill_write_behind_bytes=0")
                .value()
                .spill_write_behind_bytes,
            0u);
  // Compression accepts the usual boolean spellings, case-insensitively.
  EXPECT_TRUE(PlatformOptions::FromString("spill_compression=TRUE")
                  .value()
                  .spill_compression);
  EXPECT_TRUE(
      PlatformOptions::FromString("spill_compression=1").value().spill_compression);
  EXPECT_FALSE(PlatformOptions::FromString("spill_compression=false")
                   .value()
                   .spill_compression);
  EXPECT_FALSE(
      PlatformOptions::FromString("spill_compression=0").value().spill_compression);
  const auto bad = PlatformOptions::FromString("spill_compression=maybe");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("spill_compression"),
            std::string::npos);
  EXPECT_FALSE(PlatformOptions::FromString("spill_write_behind_bytes=-1").ok());
}

TEST(PlatformOptionsTest, FaultHandlingKnobsParse) {
  // The PR-8 retry/breaker/overload knobs: plain integers, with the
  // defaults documented in the header.
  const PlatformOptions defaults = PlatformOptions::FromString("").value();
  EXPECT_EQ(defaults.spill_retry_limit, 3u);
  EXPECT_EQ(defaults.spill_retry_backoff_ms, 1u);
  EXPECT_EQ(defaults.spill_breaker_probe_ms, 1000u);
  EXPECT_EQ(defaults.admission_queue_limit, 0u);
  EXPECT_EQ(defaults.default_deadline_ms, 0u);

  const PlatformOptions parsed =
      PlatformOptions::FromString(
          "spill_retry_limit=5, spill_retry_backoff_ms=2, "
          "spill_breaker_probe_ms=250, admission_queue_limit=64, "
          "default_deadline_ms=1500")
          .value();
  EXPECT_EQ(parsed.spill_retry_limit, 5u);
  EXPECT_EQ(parsed.spill_retry_backoff_ms, 2u);
  EXPECT_EQ(parsed.spill_breaker_probe_ms, 250u);
  EXPECT_EQ(parsed.admission_queue_limit, 64u);
  EXPECT_EQ(parsed.default_deadline_ms, 1500u);

  // Round trip through the canonical text form, defaults included.
  EXPECT_EQ(PlatformOptions::FromString(parsed.ToString()).value(), parsed);

  EXPECT_FALSE(PlatformOptions::FromString("spill_retry_limit=-1").ok());
  EXPECT_FALSE(PlatformOptions::FromString("default_deadline_ms=soon").ok());
  EXPECT_FALSE(PlatformOptions::FromString("admission_queue_limit=").ok());
}

TEST(PlatformOptionsTest, ResolvedNumWorkers) {
  PlatformOptions options;
  options.num_workers = 7;
  EXPECT_EQ(options.ResolvedNumWorkers(), 7u);
  options.num_workers = 0;
  EXPECT_GE(options.ResolvedNumWorkers(), 1u);
}

}  // namespace
}  // namespace cyclerank
