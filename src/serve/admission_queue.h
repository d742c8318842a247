// Bounded MPMC admission queue: the front door of the serving layer.
//
// Unlike runtime::Task_queue (unbounded thunks feeding a worker pool), this
// queue carries typed Requests and is *bounded*: when `capacity` requests
// are in flight, push() blocks the producer -- that is the backpressure
// that keeps a closed-loop client fleet from ballooning memory when the
// crypto pipeline is the bottleneck.
//
// pop_batch() is the consumer side of batching: it blocks for the FIRST
// request, then drains up to `max` in one critical section, so a busy
// period hands the scheduler a full coalescing window while an idle server
// still dispatches single requests immediately (no artificial latency
// timer).  An optional `max_wait` bounds a latency-for-batching trade: the
// consumer lingers up to that long for the window to fill, but a lone
// request is never held hostage past the deadline -- and close() cuts the
// window short immediately.
//
// Thread-safety: all methods safe from any thread.  FIFO per queue; per
// producer that means program order, which Batch_scheduler preserves per
// tenant.  close() wakes everyone: producers fail fast, consumers drain
// what was accepted, then see 0.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "common/error.h"
#include "serve/request.h"

namespace seda::serve {

class Admission_queue {
public:
    explicit Admission_queue(std::size_t capacity) : capacity_(capacity)
    {
        require(capacity >= 1, "Admission_queue: capacity must be >= 1");
    }

    /// Blocks while the queue is full; returns false (leaving `r` intact)
    /// only when the queue has been closed.
    [[nodiscard]] bool push(Request& r)
    {
        std::unique_lock lock(mutex_);
        space_.wait(lock, [&] { return closed_ || q_.size() < capacity_; });
        if (closed_) return false;
        q_.push_back(std::move(r));
        lock.unlock();
        ready_.notify_one();
        return true;
    }

    /// Blocks until at least one request is available (or the queue is
    /// closed and drained), then appends up to `max` requests to `out` in
    /// FIFO order.  With a nonzero `max_wait`, a partial window lingers up
    /// to that long for more arrivals (draining them as they come) before
    /// returning -- bounded extra latency bought for fuller coalescing
    /// windows; zero keeps today's drain-and-go behaviour.  close() ends
    /// the linger immediately.  Returns the number appended; 0 is the
    /// shutdown signal.
    std::size_t pop_batch(std::vector<Request>& out, std::size_t max,
                          std::chrono::microseconds max_wait = std::chrono::microseconds{0})
    {
        require(max >= 1, "Admission_queue::pop_batch: max must be >= 1");
        std::unique_lock lock(mutex_);
        ready_.wait(lock, [&] { return closed_ || !q_.empty(); });
        std::size_t take = 0;
        const auto drain = [&] {
            while (take < max && !q_.empty()) {
                out.push_back(std::move(q_.front()));
                q_.pop_front();
                ++take;
            }
        };
        drain();
        if (take > 0 && take < max && max_wait.count() > 0 && !closed_) {
            // Wake producers after EVERY drain: each one frees capacity,
            // and a producer blocked on a full queue is exactly who could
            // fill this window.
            space_.notify_all();
            const auto deadline = std::chrono::steady_clock::now() + max_wait;
            while (take < max && !closed_) {
                if (!ready_.wait_until(lock, deadline,
                                       [&] { return closed_ || !q_.empty(); }))
                    break;  // window expired
                const std::size_t before = take;
                drain();
                if (take > before) space_.notify_all();
            }
        }
        lock.unlock();
        if (take > 0) space_.notify_all();  // a burst may unblock several producers
        return take;
    }

    /// Rejects future pushes and wakes every waiter.  Idempotent; requests
    /// already accepted remain poppable.
    void close()
    {
        {
            std::lock_guard lock(mutex_);
            closed_ = true;
        }
        ready_.notify_all();
        space_.notify_all();
    }

    [[nodiscard]] std::size_t size() const
    {
        std::lock_guard lock(mutex_);
        return q_.size();
    }

    [[nodiscard]] std::size_t capacity() const { return capacity_; }

private:
    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable ready_;  ///< wakes consumers (data available / closed)
    std::condition_variable space_;  ///< wakes producers (space available / closed)
    std::deque<Request> q_;
    bool closed_ = false;
};

}  // namespace seda::serve
