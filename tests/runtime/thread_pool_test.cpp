// Thread_pool / Task_queue: futures-based join, exception propagation, the
// shard geometry, and parallel_for's work-sharing contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
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
    for (const std::size_t workers : {1u, 2u, 8u}) {
        Thread_pool pool(workers);
        for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 127u, 128u, 1000u, 4097u}) {
            std::vector<std::atomic<int>> hits(n);
            std::mutex m;
            std::vector<Index_range> chunks;
            pool.parallel_for(n, [&](std::size_t executor, Index_range range) {
                EXPECT_LE(executor, workers);
                {
                    std::lock_guard lock(m);
                    chunks.push_back(range);
                }
                for (std::size_t i = range.begin; i < range.end; ++i)
                    hits[i].fetch_add(1, std::memory_order_relaxed);
            });
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(hits[i].load(), 1) << workers << " workers, n = " << n;
            if (n == 0) {
                EXPECT_TRUE(chunks.empty());
            }
            for (const auto& r : chunks) {
                // At least 64 items per chunk; below 128 items, one chunk.
                if (n < 128) {
                    EXPECT_EQ(r, (Index_range{0, n})) << workers << " workers";
                } else {
                    EXPECT_GE(r.size(), 64u) << workers << " workers, n = " << n;
                }
            }
        }
    }
}

TEST(ThreadPool, ParallelForRunsExecutorZeroOnlyOnTheCallingThread)
{
    using namespace std::chrono_literals;
    for (const std::size_t workers : {1u, 2u, 8u}) {
        Thread_pool pool(workers);
        const auto caller = std::this_thread::get_id();
        std::mutex m;
        std::vector<std::thread::id> executor_thread(workers + 1);
        for (const std::size_t n : {1u, 127u, 128u, 1000u, 4097u}) {
            for (int rep = 0; rep < 10; ++rep) {
                pool.parallel_for(n, [&](std::size_t executor, Index_range) {
                    // Slow chunks, so that helpers wake up in time to claim some.
                    std::this_thread::sleep_for(50us);
                    const auto self = std::this_thread::get_id();
                    ASSERT_LE(executor, workers);
                    if (executor == 0) {
                        EXPECT_EQ(self, caller) << n;
                    } else {
                        EXPECT_NE(self, caller) << n << " executor " << executor;
                    }
                    // Executor 1 + w is always pool worker w.
                    std::lock_guard lock(m);
                    auto& seen = executor_thread[executor];
                    if (seen == std::thread::id{}) seen = self;
                    EXPECT_EQ(seen, self) << "executor " << executor << " changed threads";
                });
            }
        }
    }
}

TEST(ThreadPool, ParallelForCallersSharingAPoolNeverDoubleAnExecutor)
{
    // infer_session's shape: two callers, each with its own per-executor
    // state, over one 2-worker pool.
    constexpr std::size_t k_workers = 2;
    constexpr std::size_t k_items = 2887;
    constexpr int k_reps = 200;
    Thread_pool pool(k_workers);
    std::array<std::array<std::atomic<int>, k_workers + 1>, 2> inside{};
    std::atomic<int> overlaps{0};
    std::atomic<long> items{0};
    const auto call = [&](std::size_t caller) {
        for (int rep = 0; rep < k_reps; ++rep) {
            pool.parallel_for(k_items, [&](std::size_t executor, Index_range range) {
                ASSERT_LE(executor, k_workers);
                auto& slot = inside[caller][executor];
                if (slot.fetch_add(1) != 0) overlaps.fetch_add(1);
                std::this_thread::yield();
                items.fetch_add(static_cast<long>(range.size()));
                slot.fetch_sub(1);
            });
        }
    };
    std::thread a(call, 0);
    std::thread b(call, 1);
    a.join();
    b.join();
    EXPECT_EQ(overlaps.load(), 0);
    EXPECT_EQ(items.load(), 2L * k_reps * static_cast<long>(k_items));
}

TEST(ThreadPool, ParallelForRethrowsTheLowestFailingChunkAfterEveryChunkReturns)
{
    using namespace std::chrono_literals;
    Thread_pool pool(4);
    std::atomic<int> inside{0};
    std::atomic<std::size_t> items{0};
    const auto holds = [](Index_range r, std::size_t i) { return r.begin <= i && i < r.end; };
    try {
        pool.parallel_for(1000, [&](std::size_t, Index_range range) {
            inside.fetch_add(1);
            struct Leave {
                std::atomic<int>& inside;
                ~Leave() { inside.fetch_sub(1); }
            } leave{inside};
            items.fetch_add(range.size());
            if (holds(range, 700)) throw std::runtime_error("higher chunk");
            // The lower chunk throws last: its error must still win.
            std::this_thread::sleep_for(holds(range, 300) ? 50ms : 2ms);
            if (holds(range, 300)) throw std::runtime_error("lower chunk");
        });
        FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "lower chunk");
        // Every chunk ran, and none was still inside the body.
        EXPECT_EQ(inside.load(), 0);
        EXPECT_EQ(items.load(), 1000u);
    }
}

TEST(ThreadPool, SingleWorkerPoolRunsEverything)
{
    // One worker plus the caller: executors 0 and 1 only.  100 items make
    // one chunk, run on the caller; 1000 items make shard_ranges(1000, 15).
    Thread_pool pool(1);
    for (const std::size_t n : {100u, 1000u}) {
        const std::size_t expected_chunks = n < 128 ? 1 : n / 64;
        const auto expected = shard_ranges(n, expected_chunks);
        std::mutex m;
        std::vector<Index_range> chunks;
        std::atomic<long> sum{0};
        std::atomic<std::size_t> executor_mask{0};
        pool.parallel_for(n, [&](std::size_t executor, Index_range range) {
            ASSERT_LE(executor, 1u);
            executor_mask.fetch_or(std::size_t{1} << executor);
            {
                std::lock_guard lock(m);
                chunks.push_back(range);
            }
            for (std::size_t i = range.begin; i < range.end; ++i)
                sum.fetch_add(static_cast<long>(i));
        });
        EXPECT_EQ(sum.load(), static_cast<long>(n * (n - 1) / 2)) << n;
        EXPECT_NE(executor_mask.load(), 0u) << n;
        EXPECT_EQ(executor_mask.load() & ~std::size_t{0b11}, 0u) << n;
        if (n < 128) {
            EXPECT_EQ(executor_mask.load(), 0b01u) << "one chunk runs on the caller";
        }
        std::sort(chunks.begin(), chunks.end(),
                  [](Index_range a, Index_range b) { return a.begin < b.begin; });
        EXPECT_EQ(chunks, expected) << n;
    }
    // Submitted tasks still run on the single worker.
    EXPECT_NE(pool.submit([] { return std::this_thread::get_id(); }).get(),
              std::this_thread::get_id());
}

TEST(ThreadPool, ParallelForNeverWaitsOnAQueuedHelper)
{
    using namespace std::chrono_literals;
    Thread_pool pool(1);
    std::mutex m;
    std::condition_variable cv;
    bool parked = false;
    bool release = false;
    std::atomic<bool> worker_free{false};
    auto parked_task = pool.submit([&] {
        std::unique_lock lock(m);
        parked = true;
        cv.notify_all();
        // Bounded so that a caller which does wait on its helper fails this
        // test after ~2 s instead of hanging it.
        cv.wait_for(lock, 2s, [&] { return release; });
        worker_free.store(true);
    });
    {
        std::unique_lock lock(m);
        cv.wait(lock, [&] { return parked; });
    }

    {
        std::vector<std::atomic<int>> hits(1000);
        pool.parallel_for(1000, [&](std::size_t executor, Index_range range) {
            EXPECT_EQ(executor, 0u);
            for (std::size_t i = range.begin; i < range.end; ++i)
                hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        EXPECT_FALSE(worker_free.load()) << "parallel_for waited for the parked worker";
        for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
    }

    {
        std::lock_guard lock(m);
        release = true;
    }
    cv.notify_all();
    parked_task.get();
    // The helper queued behind the parked task now runs against a loop
    // whose frame is gone; it must find every chunk claimed and leave.
    EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
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
