// Concurrency contract of the page-pinning buffer pool
// (storage/buffer_manager.h): pinned spans survive eviction pressure, an
// over-pinned pool fails fetches cleanly instead of over-committing,
// racing misses on one page issue a single read (single-flight), the
// hit/miss counters stay exact, and DropCache never invalidates an
// outstanding pin. The prefetch pipeline rides the same machinery:
// readahead joins the single-flight path (one physical read no matter
// how fetches and prefetches race), never evicts pinned or referenced
// pages, leaves the pool's demand accounting untouched at depth 0 (the
// pool itself is byte-identical to the seed; the scan layers' run
// coalescing can merge same-page fetches, which REDUCES fetch events —
// honestly, fewer fetches — but never changes answers), and is
// cancelled/drained by DropCache. The TSan and ASan/UBSan CI shards run
// this suite (with HYDRA_PREFETCH=8 runs racing the background workers).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/generators.h"
#include "index/answer_set.h"
#include "index/leaf_scanner.h"
#include "storage/buffer_manager.h"
#include "storage/series_file.h"

namespace hydra {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static std::atomic<int> counter{0};
    dir_ = std::filesystem::temp_directory_path() /
           ("hydra_buffer_pool_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Writes an n x len random-walk dataset and opens a pool over it.
  std::unique_ptr<BufferManager> OpenPool(size_t n, size_t len,
                                          uint64_t page_series,
                                          uint64_t capacity_pages) {
    Rng rng(41);
    data_ = MakeRandomWalk(n, len, rng);
    std::string path = (dir_ / "pool.hsf").string();
    EXPECT_TRUE(WriteSeriesFile(path, data_).ok());
    auto bm = BufferManager::Open(path, page_series, capacity_pages);
    EXPECT_TRUE(bm.ok());
    return bm.ok() ? std::move(bm).value() : nullptr;
  }

  void ExpectIsSeries(std::span<const float> span, uint64_t id) {
    ASSERT_EQ(span.size(), data_.length());
    for (size_t t = 0; t < span.size(); ++t) {
      ASSERT_FLOAT_EQ(span[t], data_.series(id)[t]) << "series " << id;
    }
  }

  std::filesystem::path dir_;
  Dataset data_;
};

TEST_F(BufferPoolTest, AdvertisesConcurrentReadsAndPinBudget) {
  auto bm = OpenPool(64, 8, /*page_series=*/4, /*capacity_pages=*/2);
  ASSERT_NE(bm, nullptr);
  EXPECT_TRUE(bm->SupportsConcurrentReads());
  EXPECT_EQ(bm->MaxConcurrentPins(), 2u);
}

TEST_F(BufferPoolTest, PinnedSpanSurvivesEvictionPressure) {
  auto bm = OpenPool(64, 8, /*page_series=*/4, /*capacity_pages=*/2);
  ASSERT_NE(bm, nullptr);

  PinnedRun pin = bm->PinSeries(0, nullptr);
  ASSERT_FALSE(pin.empty());
  std::vector<float> before(pin.span().begin(), pin.span().end());

  // Churn every other page through the one unpinned slot.
  QueryCounters c;
  for (uint64_t i = 4; i < 64; ++i) bm->GetSeries(i, &c);

  // The pinned page was never evicted: its span is intact and a re-access
  // within the page is still a hit.
  EXPECT_TRUE(std::equal(before.begin(), before.end(), pin.span().begin()));
  ExpectIsSeries(pin.span(), 0);
  uint64_t hits = bm->cache_hits();
  bm->GetSeries(1, &c);
  EXPECT_EQ(bm->cache_hits(), hits + 1);
}

TEST_F(BufferPoolTest, OverPinnedPoolFailsFetchesCleanly) {
  auto bm = OpenPool(64, 8, /*page_series=*/4, /*capacity_pages=*/2);
  ASSERT_NE(bm, nullptr);

  PinnedRun a = bm->PinSeries(0, nullptr);   // page 0
  PinnedRun b = bm->PinSeries(4, nullptr);   // page 1
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());

  // Both slots pinned: a third page cannot be admitted. The fetch reports
  // a clean failure (empty handle / empty span), not a crash or an
  // over-committed pool.
  PinnedRun c = bm->PinSeries(8, nullptr);
  EXPECT_TRUE(c.empty());
  EXPECT_TRUE(bm->GetSeries(8, nullptr).empty());

  // Releasing one pin frees a slot and the same fetch succeeds.
  a.Release();
  PinnedRun retry = bm->PinSeries(8, nullptr);
  ASSERT_FALSE(retry.empty());
  ExpectIsSeries(retry.span(), 8);
}

TEST_F(BufferPoolTest, SingleFlightLoadUnderRacingMisses) {
  auto bm = OpenPool(64, 8, /*page_series=*/8, /*capacity_pages=*/4);
  ASSERT_NE(bm, nullptr);

  constexpr size_t kThreads = 8;
  std::latch start(kThreads);
  std::vector<PinnedRun> pins(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      // All threads miss on page 0 at once; series ids differ within it.
      pins[t] = bm->PinSeries(t % 8, nullptr);
    });
  }
  for (std::thread& t : threads) t.join();

  // Exactly one read was issued; everyone else joined the in-flight load.
  EXPECT_EQ(bm->cache_misses(), 1u);
  EXPECT_EQ(bm->cache_hits(), kThreads - 1);
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_FALSE(pins[t].empty());
    ExpectIsSeries(pins[t].span(), t % 8);
  }
}

TEST_F(BufferPoolTest, HitMissCountersMatchSerialSeedBehaviour) {
  // The seed LRU counted, for a sequential scan of 32 series in pages of
  // 8 with capacity 4: one miss per page, hits for everything else. The
  // pin API must account identically.
  auto bm = OpenPool(32, 8, /*page_series=*/8, /*capacity_pages=*/4);
  ASSERT_NE(bm, nullptr);
  QueryCounters c;
  for (uint64_t i = 0; i < 32; ++i) {
    PinnedRun run = bm->PinSeries(i, &c);
    ASSERT_FALSE(run.empty());
  }
  EXPECT_EQ(bm->cache_misses(), 4u);
  EXPECT_EQ(bm->cache_hits(), 28u);
  EXPECT_EQ(c.series_accessed, 32u);
  EXPECT_EQ(c.bytes_read, 32u * 8u * sizeof(float));
}

TEST_F(BufferPoolTest, DropCacheRetainsPinnedPages) {
  auto bm = OpenPool(64, 8, /*page_series=*/4, /*capacity_pages=*/4);
  ASSERT_NE(bm, nullptr);

  PinnedRun pin = bm->PinSeries(0, nullptr);
  ASSERT_FALSE(pin.empty());
  bm->GetSeries(4, nullptr);  // a second, unpinned page

  // The unpinned page is dropped; the pinned one is retained and its
  // span stays valid.
  EXPECT_EQ(bm->DropCache(), 1u);
  ExpectIsSeries(pin.span(), 0);
  uint64_t hits = bm->cache_hits();
  bm->GetSeries(0, nullptr);  // still pooled: a hit
  EXPECT_EQ(bm->cache_hits(), hits + 1);

  uint64_t misses = bm->cache_misses();
  bm->GetSeries(4, nullptr);  // was dropped: re-read
  EXPECT_EQ(bm->cache_misses(), misses + 1);

  // Once the pin is gone a later DropCache empties the pool.
  pin.Release();
  EXPECT_EQ(bm->DropCache(), 0u);
  misses = bm->cache_misses();
  bm->GetSeries(0, nullptr);
  EXPECT_EQ(bm->cache_misses(), misses + 1);
}

// Eviction hands the victim's page buffer to the page admitted in its
// place. 30 series in pages of 4 leave a last page of 2; visiting it
// between every two full pages makes every fetch of a 2-page pool a miss,
// so each buffer passes between the short page and full ones, both ways.
TEST_F(BufferPoolTest, RecycledBuffersServeBothPageSizes) {
  auto bm = OpenPool(30, 8, /*page_series=*/4, /*capacity_pages=*/2);
  ASSERT_NE(bm, nullptr);
  constexpr uint64_t kLastPage = 7;
  std::vector<uint64_t> pages;
  for (uint64_t full = 0; full < 21; full += 2) {
    pages.insert(pages.end(), {kLastPage, full % 7, (full + 1) % 7});
  }
  for (uint64_t page : pages) {
    const uint64_t first = page * 4;
    const uint64_t count = page == kLastPage ? 2 : 4;
    Result<PinnedRun> run = bm->PinRunChecked(first, 4, nullptr);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const std::span<const float> span = run.value().span();
    ASSERT_EQ(span.size(), count * 8) << "page " << page;
    for (uint64_t s = 0; s < count; ++s) {
      ExpectIsSeries(span.subspan(s * 8, 8), first + s);
    }
  }
  EXPECT_EQ(bm->cache_misses(), pages.size());
  EXPECT_EQ(bm->cache_hits(), 0u);
}

// CLOCK replacement worked by hand in a 3-page pool of one-series pages.
// A newcomer takes its victim's slot with its reference bit set, and the
// hand moves past it. A pinned frame is skipped without losing its
// reference bit, so the hand takes the next unreferenced frame instead.
TEST_F(BufferPoolTest, ClockReplacesVictimsInPlaceInHandOrder) {
  auto bm = OpenPool(8, 4, /*page_series=*/1, /*capacity_pages=*/3);
  ASSERT_NE(bm, nullptr);
  // Fetches page `page`, which must miss or hit as `miss` says, and
  // checks the ring's slots afterwards.
  auto fetch = [&](uint64_t page, bool miss,
                   const std::vector<uint64_t>& ring) {
    const uint64_t misses = bm->cache_misses();
    ASSERT_FALSE(bm->PinSeries(page, nullptr).empty()) << "page " << page;
    EXPECT_EQ(bm->cache_misses(), misses + (miss ? 1 : 0)) << "page " << page;
    EXPECT_EQ(bm->RingPages(), ring) << "after page " << page;
  };
  fetch(0, true, {0});
  fetch(1, true, {0, 1});
  fetch(2, true, {0, 1, 2});
  // Full. The sweep clears 0, 1 and 2, then takes 0; the hand rests on 1.
  fetch(3, true, {3, 1, 2});
  fetch(1, false, {3, 1, 2});  // sets 1's bit again
  // 1 loses its bit; 2 has none and goes.
  fetch(4, true, {3, 1, 4});
  // Pin 1: its bit is set and stays set while the sweep skips it.
  PinnedRun pin = bm->PinSeries(1, nullptr);
  ASSERT_FALSE(pin.empty());
  // From slot 0: clear 3, skip 1, clear 4; 3 goes.
  fetch(5, true, {5, 1, 4});
  // The hand is on 1, which would go if it were not pinned: 4 goes.
  fetch(6, true, {5, 1, 6});
  pin.Release();
  // From slot 0: clear 5, 1 and 6; 5 goes.
  fetch(7, true, {7, 1, 6});
  // 1 no longer has its bit: it goes.
  fetch(0, true, {7, 0, 6});
  EXPECT_EQ(bm->cache_misses(), 9u);
  EXPECT_EQ(bm->cache_hits(), 2u);
}

// --- prefetch pipeline ---

TEST_F(BufferPoolTest, PrefetchWarmsPoolAndDefersChargesToConsumer) {
  auto bm = OpenPool(64, 8, /*page_series=*/4, /*capacity_pages=*/8);
  ASSERT_NE(bm, nullptr);
  EXPECT_EQ(bm->MaxPrefetchPages(), 4u);  // capacity / 2
  EXPECT_EQ(bm->SeriesPerPage(), 4u);

  // Queue 4 pages (the whole budget) and let the workers land them.
  QueryCounters issuer;
  bm->Prefetch(/*first=*/0, /*count=*/16, &issuer);
  bm->DrainPrefetches();
  EXPECT_EQ(issuer.prefetch_issued, 4u);
  EXPECT_EQ(bm->prefetch_issued(), 4u);
  // Background loads are not demand fetches: no hit/miss yet, and the
  // read cost is parked on the frames, not charged to the issuer.
  EXPECT_EQ(bm->cache_hits(), 0u);
  EXPECT_EQ(bm->cache_misses(), 0u);
  EXPECT_EQ(issuer.bytes_read, 0u);

  // Demand fetches now find every page resident: all hits, and each
  // page's deferred read cost lands on its first consumer.
  QueryCounters consumer;
  for (uint64_t i = 0; i < 16; ++i) {
    PinnedRun run = bm->PinSeries(i, &consumer);
    ASSERT_FALSE(run.empty());
    ExpectIsSeries(run.span(), i);
  }
  EXPECT_EQ(bm->cache_hits(), 16u);
  EXPECT_EQ(bm->cache_misses(), 0u);
  EXPECT_EQ(bm->prefetch_useful(), 4u);
  EXPECT_EQ(consumer.prefetch_useful, 4u);
  EXPECT_EQ(consumer.cache_hits, 16u);
  EXPECT_EQ(consumer.bytes_read, 16u * 8u * sizeof(float));
}

TEST_F(BufferPoolTest, PrefetchJoinsSingleFlightUnderRacingFetches) {
  // A prefetch and 8 racing demand fetches of the SAME page must issue
  // exactly one physical read between them, whoever wins: the losers
  // join the in-flight load. Physical reads are observable as bytes_read
  // (the loader charges its own read; a consumed prefetched frame defers
  // its read cost to exactly one consumer).
  constexpr size_t kThreads = 8;
  for (int round = 0; round < 8; ++round) {
    auto bm = OpenPool(64, 8, /*page_series=*/8, /*capacity_pages=*/4);
    ASSERT_NE(bm, nullptr);
    std::latch start(kThreads + 1);
    std::vector<QueryCounters> counters(kThreads);
    std::vector<PinnedRun> pins(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        pins[t] = bm->PinSeries(t % 8, &counters[t]);
      });
    }
    QueryCounters issuer;
    start.arrive_and_wait();
    bm->Prefetch(/*first=*/0, /*count=*/8, &issuer);
    for (std::thread& t : threads) t.join();
    bm->DrainPrefetches();

    uint64_t bytes = issuer.bytes_read;
    uint64_t demand_events = 0;
    for (size_t t = 0; t < kThreads; ++t) {
      ASSERT_FALSE(pins[t].empty()) << "round " << round;
      ExpectIsSeries(pins[t].span(), t % 8);
      bytes += counters[t].bytes_read;
      demand_events += counters[t].cache_hits + counters[t].cache_misses;
    }
    // One read's worth of bytes across every participant, and every
    // demand fetch counted exactly one hit-or-miss event.
    EXPECT_EQ(bytes, 8u * 8u * sizeof(float)) << "round " << round;
    EXPECT_EQ(demand_events, kThreads) << "round " << round;
    EXPECT_EQ(bm->cache_hits() + bm->cache_misses(), kThreads)
        << "round " << round;
  }
}

TEST_F(BufferPoolTest, PrefetchNeverEvictsPinnedOrReferencedAtCapacity) {
  auto bm = OpenPool(64, 8, /*page_series=*/4, /*capacity_pages=*/4);
  ASSERT_NE(bm, nullptr);

  // Fill the pool: pages 0 and 1 pinned, pages 2 and 3 resident with
  // their reference bits set (just fetched).
  PinnedRun pin_a = bm->PinSeries(0, nullptr);
  PinnedRun pin_b = bm->PinSeries(4, nullptr);
  ASSERT_FALSE(pin_a.empty());
  ASSERT_FALSE(pin_b.empty());
  bm->GetSeries(8, nullptr);
  bm->GetSeries(12, nullptr);

  // Aggressive readahead against the full pool: prefetch admission never
  // clears reference bits and never touches pins, so it finds no victim
  // and drops every hint instead of displacing a single resident page.
  QueryCounters issuer;
  bm->Prefetch(/*first=*/16, /*count=*/48, &issuer);
  bm->DrainPrefetches();

  std::vector<float> a_before(pin_a.span().begin(), pin_a.span().end());
  EXPECT_TRUE(
      std::equal(a_before.begin(), a_before.end(), pin_a.span().begin()));
  uint64_t hits = bm->cache_hits();
  bm->GetSeries(0, nullptr);
  bm->GetSeries(4, nullptr);
  bm->GetSeries(8, nullptr);
  bm->GetSeries(12, nullptr);
  EXPECT_EQ(bm->cache_hits(), hits + 4) << "a resident page was displaced";
  EXPECT_EQ(bm->prefetch_useful(), 0u);
}

TEST_F(BufferPoolTest, PrefetchRespectsBudgetCarveOut) {
  auto bm = OpenPool(64, 8, /*page_series=*/4, /*capacity_pages=*/8);
  ASSERT_NE(bm, nullptr);
  // Budget is 4 of 8 pages: a 16-page announcement queues at most 4.
  QueryCounters issuer;
  bm->Prefetch(/*first=*/0, /*count=*/64, &issuer);
  bm->DrainPrefetches();
  EXPECT_LE(issuer.prefetch_issued, 4u);
  EXPECT_EQ(bm->prefetch_issued(), issuer.prefetch_issued);
}

TEST_F(BufferPoolTest, DepthZeroHitMissCountsMatchSeed) {
  // Two identical pools, one scanned through a LeafScanner::ScanRange
  // with prefetch_depth = 0, one with the seed pin loop: identical
  // hit/miss accounting — the pool's demand path is bit-identical to
  // pre-prefetch behavior. (ScanIds' run coalescing merges same-page
  // consecutive-id fetches into one PinRun, so tree-leaf hit counts can
  // legitimately DROP vs per-id fetching; answers are covered by
  // parallel_search_test.)
  auto bm = OpenPool(32, 8, /*page_series=*/8, /*capacity_pages=*/4);
  ASSERT_NE(bm, nullptr);
  QueryCounters c;
  for (uint64_t i = 0; i < 32; ++i) {
    PinnedRun run = bm->PinSeries(i, &c);
    ASSERT_FALSE(run.empty());
  }
  const uint64_t seed_hits = bm->cache_hits();
  const uint64_t seed_misses = bm->cache_misses();

  auto bm2 = OpenPool(32, 8, /*page_series=*/8, /*capacity_pages=*/4);
  ASSERT_NE(bm2, nullptr);
  AnswerSet answers(4);
  QueryCounters c2;
  LeafScanner scanner(data_.series(0), &answers, &c2, /*num_threads=*/1,
                      /*pin_budget=*/0, /*prefetch_depth=*/0);
  auto scanned = scanner.ScanRange(bm2.get(), 0, 32);
  ASSERT_TRUE(scanned.ok());
  // ScanRange pins page-sized runs: one fetch per page, all misses.
  EXPECT_EQ(bm2->cache_misses(), seed_misses);
  EXPECT_EQ(bm2->prefetch_issued(), 0u);
  EXPECT_EQ(bm2->prefetch_useful(), 0u);
  EXPECT_EQ(c2.cache_misses, c.cache_misses);
  EXPECT_EQ(c2.series_accessed, c.series_accessed);
  EXPECT_EQ(c2.bytes_read, c.bytes_read);
  EXPECT_EQ(seed_hits + seed_misses, 32u);  // every fetch: hit xor miss
}

TEST_F(BufferPoolTest, DropCacheCancelsAndDrainsInFlightPrefetches) {
  // DropCache's contract: no late prefetch completion may repopulate the
  // freshly emptied pool. Race it hard: queue readahead and immediately
  // drop, repeatedly; after every drop, a fetch of a prefetched page
  // must MISS (the page is gone or was never loaded).
  auto bm = OpenPool(256, 8, /*page_series=*/4, /*capacity_pages=*/16);
  ASSERT_NE(bm, nullptr);
  for (int round = 0; round < 32; ++round) {
    bm->Prefetch(/*first=*/0, /*count=*/32, nullptr);
    EXPECT_EQ(bm->DropCache(), 0u);
    uint64_t misses = bm->cache_misses();
    bm->GetSeries(0, nullptr);
    EXPECT_EQ(bm->cache_misses(), misses + 1) << "round " << round;
    EXPECT_EQ(bm->DropCache(), 0u);
  }
}

TEST_F(BufferPoolTest, ConcurrentScansSeeConsistentDataAndCounters) {
  constexpr size_t kThreads = 8;
  // Capacity comfortably above the concurrent pin set (each worker holds
  // one pin at a time), so no fetch can hit an all-pinned pool.
  auto bm = OpenPool(256, 16, /*page_series=*/8, /*capacity_pages=*/16);
  ASSERT_NE(bm, nullptr);

  std::latch start(kThreads);
  std::atomic<uint64_t> fetches{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      // Strided sweep: every thread churns every page, repeatedly.
      for (int round = 0; round < 4; ++round) {
        for (uint64_t i = t; i < 256; i += kThreads) {
          PinnedRun run = bm->PinSeries(i, nullptr);
          fetches.fetch_add(1, std::memory_order_relaxed);
          if (run.empty()) {
            failures.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          for (size_t j = 0; j < run.span().size(); ++j) {
            if (run.span()[j] != data_.series(i)[j]) {
              mismatch.store(true, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(failures.load(), 0u);
  // Every fetch is exactly one hit or one miss, never both, never
  // neither.
  EXPECT_EQ(bm->cache_hits() + bm->cache_misses(), fetches.load());
}

}  // namespace
}  // namespace hydra
