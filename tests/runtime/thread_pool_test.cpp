// Thread_pool / Task_queue: futures-based join, exception propagation, and
// the shard geometry every sharded runtime path relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.h"
#include "runtime/thread_pool.h"

namespace seda::runtime {
namespace {

TEST(ShardRanges, CoversExactlyOnceOnRaggedCounts)
{
    for (const std::size_t n : {0u, 1u, 2u, 5u, 7u, 8u, 9u, 64u, 129u, 1000u}) {
        for (const std::size_t shards : {1u, 2u, 3u, 4u, 8u, 16u}) {
            const auto ranges = shard_ranges(n, shards);
            std::vector<int> hits(n, 0);
            std::size_t expected_begin = 0;
            for (const auto& r : ranges) {
                EXPECT_EQ(r.begin, expected_begin);  // contiguous, in order
                EXPECT_GT(r.size(), 0u);             // no empty shards
                for (std::size_t i = r.begin; i < r.end; ++i) ++hits[i];
                expected_begin = r.end;
            }
            EXPECT_EQ(expected_begin, n) << n << " items over " << shards;
            for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1);
            // Balanced: sizes differ by at most one.
            if (!ranges.empty()) {
                std::size_t lo = ranges[0].size(), hi = ranges[0].size();
                for (const auto& r : ranges) {
                    lo = std::min(lo, r.size());
                    hi = std::max(hi, r.size());
                }
                EXPECT_LE(hi - lo, 1u);
            }
        }
    }
    EXPECT_TRUE(shard_ranges(10, 0).empty());
}

TEST(TaskQueue, DrainsQueuedTasksAfterClose)
{
    Task_queue q;
    int ran = 0;
    EXPECT_TRUE(q.push([&] { ++ran; }));
    EXPECT_TRUE(q.push([&] { ++ran; }));
    q.close();
    EXPECT_FALSE(q.push([&] { ++ran; }));  // rejected after close
    while (auto t = q.pop()) (*t)();
    EXPECT_EQ(ran, 2);  // queued work still drained
}

TEST(ThreadPool, SubmitReturnsValues)
{
    Thread_pool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 64; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency)
{
    Thread_pool pool(0);
    EXPECT_EQ(pool.size(), Thread_pool::default_workers());
    EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    Thread_pool pool(2);
    auto f = pool.submit([]() -> int { throw Seda_error("boom"); });
    EXPECT_THROW((void)f.get(), Seda_error);
    // The worker survives the throw and keeps serving tasks.
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ParallelForCoversAllIndices)
{
    Thread_pool pool(8);
    for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 1000u}) {
        std::vector<std::atomic<int>> hits(n);
        pool.parallel_for(n, [&](std::size_t, Index_range range) {
            for (std::size_t i = range.begin; i < range.end; ++i)
                hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << n;
    }
}

TEST(ThreadPool, ParallelForJoinsEveryShardBeforeRethrowing)
{
    Thread_pool pool(4);
    std::atomic<int> completed{0};
    try {
        pool.parallel_for(100, [&](std::size_t shard, Index_range) {
            if (shard == 1) throw Seda_error("shard down");
            completed.fetch_add(1, std::memory_order_relaxed);
        });
        FAIL() << "expected Seda_error";
    } catch (const Seda_error&) {
    }
    // Every non-throwing shard (4 workers + the caller's shard 0, minus the
    // thrower) finished before the rethrow reached us.
    EXPECT_EQ(completed.load(), 4);
}

TEST(ThreadPool, SingleWorkerPoolRunsEverything)
{
    // One worker plus the caller: exactly two shards, splitting the range.
    Thread_pool pool(1);
    std::atomic<long> sum{0};
    std::atomic<int> shards_seen{0};
    std::atomic<std::size_t> shard_mask{0};
    pool.parallel_for(100, [&](std::size_t shard, Index_range range) {
        shards_seen.fetch_add(1);
        shard_mask.fetch_or(std::size_t{1} << shard);
        EXPECT_EQ(range, shard_ranges(100, 2)[shard]);
        for (std::size_t i = range.begin; i < range.end; ++i)
            sum.fetch_add(static_cast<long>(i));
    });
    EXPECT_EQ(shards_seen.load(), 2);
    EXPECT_EQ(shard_mask.load(), 0b11u);
    EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(ThreadPool, ParallelForRunsShardZeroOnTheCallingThread)
{
    Thread_pool pool(3);
    const auto caller = std::this_thread::get_id();
    for (const std::size_t n : {1u, 2u, 4u, 5u, 1000u}) {
        std::vector<std::atomic<int>> hits(n);
        std::vector<std::thread::id> ran_on(4);
        std::atomic<int> shards{0};
        pool.parallel_for(n, [&](std::size_t shard, Index_range range) {
            ran_on[shard] = std::this_thread::get_id();
            shards.fetch_add(1);
            for (std::size_t i = range.begin; i < range.end; ++i)
                hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        EXPECT_EQ(static_cast<std::size_t>(shards.load()), std::min<std::size_t>(n, 4)) << n;
        EXPECT_EQ(ran_on[0], caller) << n;
        for (std::size_t s = 1; s < std::min<std::size_t>(n, 4); ++s)
            EXPECT_NE(ran_on[s], caller) << n << " shard " << s;
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << n;
    }
}

TEST(ThreadPool, ManyConcurrentSubmittersAreSafe)
{
    Thread_pool pool(4);
    Thread_pool submitters(4);
    std::atomic<int> total{0};
    submitters.parallel_for(256, [&](std::size_t, Index_range range) {
        std::vector<std::future<void>> fs;
        for (std::size_t i = range.begin; i < range.end; ++i)
            fs.push_back(pool.submit([&total] { total.fetch_add(1); }));
        for (auto& f : fs) f.get();
    });
    EXPECT_EQ(total.load(), 256);
}

}  // namespace
}  // namespace seda::runtime
