// Bounded MPMC admission queue: capacity/backpressure, FIFO, batch pops,
// close semantics, and the concurrency tests the TSan job runs (exactly-once
// delivery, per-producer order through a small ring, close() racing pushes).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <mutex>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "common/error.h"
#include "serve/admission_queue.h"

namespace seda::serve {
namespace {

Request make_request(u64 seq)
{
    Request r;
    r.seq = seq;
    return r;
}

TEST(AdmissionQueue, PopBatchIsFifoAndBounded)
{
    Admission_queue q(8);
    for (u64 i = 0; i < 5; ++i) {
        Request r = make_request(i);
        ASSERT_TRUE(q.push(r));
    }
    std::vector<Request> out;
    EXPECT_EQ(q.pop_batch(out, 3), 3u);
    EXPECT_EQ(q.pop_batch(out, 3), 2u);
    ASSERT_EQ(out.size(), 5u);
    for (u64 i = 0; i < 5; ++i) EXPECT_EQ(out[i].seq, i);
}

TEST(AdmissionQueue, BlockedPushWakesWhenSpaceFrees)
{
    Admission_queue q(1);
    Request first = make_request(0);
    ASSERT_TRUE(q.push(first));

    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        Request second = make_request(1);
        EXPECT_TRUE(q.push(second));  // blocks until the pop below
        pushed = true;
    });

    std::vector<Request> out;
    EXPECT_EQ(q.pop_batch(out, 1), 1u);
    producer.join();
    EXPECT_TRUE(pushed);
    EXPECT_EQ(q.size(), 1u);
}

TEST(AdmissionQueue, CloseDrainsAcceptedThenSignalsShutdown)
{
    Admission_queue q(8);
    for (u64 i = 0; i < 3; ++i) {
        Request r = make_request(i);
        ASSERT_TRUE(q.push(r));
    }
    q.close();
    Request late = make_request(99);
    EXPECT_FALSE(q.push(late));
    EXPECT_EQ(late.seq, 99u);  // rejected pushes leave the request intact

    std::vector<Request> out;
    EXPECT_EQ(q.pop_batch(out, 16), 3u);  // accepted requests still drain
    EXPECT_EQ(q.pop_batch(out, 16), 0u);  // then the shutdown signal
}

TEST(AdmissionQueue, CloseWakesBlockedProducer)
{
    Admission_queue q(1);
    Request first = make_request(0);
    ASSERT_TRUE(q.push(first));

    std::thread producer([&] {
        Request second = make_request(1);
        EXPECT_FALSE(q.push(second));  // blocked full, then closed
    });
    // Give the producer a moment to block, then close.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.close();
    producer.join();
}

TEST(AdmissionQueue, InvalidConfigThrows)
{
    EXPECT_THROW(Admission_queue q(0), Seda_error);
    Admission_queue q(1);
    std::vector<Request> out;
    EXPECT_THROW((void)q.pop_batch(out, 0), Seda_error);
}

TEST(AdmissionQueue, ConcurrentProducersConsumersDeliverExactlyOnce)
{
    constexpr std::size_t k_producers = 4;
    constexpr std::size_t k_consumers = 3;
    constexpr u64 k_per_producer = 200;
    Admission_queue q(16);  // small capacity: backpressure actually engages

    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < k_producers; ++p)
        producers.emplace_back([&q, p] {
            for (u64 i = 0; i < k_per_producer; ++i) {
                Request r = make_request(p * k_per_producer + i);
                ASSERT_TRUE(q.push(r));
            }
        });

    std::mutex mu;
    std::set<u64> seen;
    std::vector<std::thread> consumers;
    for (std::size_t c = 0; c < k_consumers; ++c)
        consumers.emplace_back([&] {
            std::vector<Request> out;
            while (q.pop_batch(out, 7) != 0) {
                std::lock_guard lock(mu);
                for (const Request& r : out) EXPECT_TRUE(seen.insert(r.seq).second);
                out.clear();
            }
        });

    for (auto& t : producers) t.join();
    q.close();
    for (auto& t : consumers) t.join();
    EXPECT_EQ(seen.size(), k_producers * k_per_producer);
}

/// Runs `body` on its own thread and fails the whole binary if it is not
/// done within `limit`: a hung queue must end the run, not stall it.
template <typename Body>
void within(std::chrono::seconds limit, Body body)
{
    std::packaged_task<void()> task(std::move(body));
    std::future<void> done = task.get_future();
    std::thread runner(std::move(task));
    if (done.wait_for(limit) != std::future_status::ready) {
        ADD_FAILURE() << "still running after " << limit.count() << " s";
        std::abort();
    }
    runner.join();
    done.get();
}

TEST(AdmissionQueue, RingKeepsEachProducersOrderThroughSmallCapacity)
{
    constexpr u32 k_producers = 4;
    constexpr u64 k_per_producer = 10'000;
    Admission_queue q(16);
    within(std::chrono::seconds(120), [&] {
        std::vector<std::thread> producers;
        for (u32 p = 0; p < k_producers; ++p)
            producers.emplace_back([&q, p] {
                for (u64 i = 0; i < k_per_producer; ++i) {
                    Request r = make_request(i);
                    r.client_id = p;
                    ASSERT_TRUE(q.push(r));
                }
            });
        std::vector<u64> next(k_producers, 0);
        std::vector<Request> out;
        for (u64 popped = 0; popped < k_producers * k_per_producer;) {
            out.clear();
            popped += q.pop_batch(out, 5);
            for (const Request& r : out) {
                EXPECT_EQ(r.seq, next.at(r.client_id)) << "producer " << r.client_id;
                next.at(r.client_id) = r.seq + 1;
            }
        }
        for (auto& t : producers) t.join();
        q.close();
        out.clear();
        EXPECT_EQ(q.pop_batch(out, 5), 0u);
        for (u32 p = 0; p < k_producers; ++p) EXPECT_EQ(next[p], k_per_producer);
    });
}

TEST(AdmissionQueue, CloseRacingPushesNeitherDropsNorHangs)
{
    // Producers hammer a 2-cell ring, so at any instant some are asleep on
    // a full ring and some are between claiming a cell and filling it;
    // close() lands at a random moment.  Every push that returned true must
    // be popped before pop_batch() reports shutdown.
    constexpr u32 k_producers = 4;
    constexpr int k_rounds = 300;
    within(std::chrono::seconds(120), [] {
        std::mt19937 rng(7);
        for (int round = 0; round < k_rounds; ++round) {
            Admission_queue q(2);
            std::vector<std::atomic<u64>> accepted(k_producers);
            std::vector<std::thread> producers;
            for (u32 p = 0; p < k_producers; ++p)
                producers.emplace_back([&q, &accepted, p] {
                    for (u64 i = 0;; ++i) {
                        Request r = make_request(i);
                        r.client_id = p;
                        if (!q.push(r)) return;
                        accepted[p].fetch_add(1);
                    }
                });
            std::vector<u64> popped(k_producers, 0);
            std::thread consumer([&] {
                std::vector<Request> out;
                while (q.pop_batch(out, 3) != 0) {
                    for (const Request& r : out) {
                        EXPECT_EQ(r.seq, popped[r.client_id]);
                        ++popped[r.client_id];
                    }
                    out.clear();
                }
            });
            // Close only once every producer is pushing, at a random moment.
            for (const auto& a : accepted)
                while (a.load() == 0) std::this_thread::yield();
            const auto spin = std::chrono::microseconds(rng() % 50);
            for (const auto t0 = std::chrono::steady_clock::now();
                 std::chrono::steady_clock::now() - t0 < spin;) {
            }
            q.close();
            for (auto& t : producers) t.join();
            consumer.join();
            for (u32 p = 0; p < k_producers; ++p)
                ASSERT_EQ(popped[p], accepted[p].load()) << "round " << round << ", producer " << p;
        }
    });
}

}  // namespace
}  // namespace seda::serve
