// Bounded MPMC admission queue: the front door of the serving layer.
//
// Unlike runtime::Task_queue (unbounded thunks feeding a worker pool), this
// queue carries typed Requests and is *bounded*: when `capacity` requests
// are in flight, push() blocks the producer -- that is the backpressure
// that keeps a closed-loop client fleet from ballooning memory when the
// crypto pipeline is the bottleneck.
//
// pop_batch() is the consumer side of batching: it blocks for the FIRST
// request, then drains up to `max`, so a busy period hands the scheduler a
// full coalescing window while an idle server still dispatches single
// requests immediately (no latency timer).
//
// The queue is a ring of `capacity` cells with a sequence number each
// (Vyukov's bounded MPMC queue).  Position p lives in cell p % capacity,
// whose sequence reads 2p while the cell waits for p's producer and 2p + 1
// once p's request is in it; the consumer of p hands the cell on to
// position p + capacity.  A producer claims a position with one CAS on the
// tail, and a consumer with one CAS on the head; neither takes a lock.  The
// closed flag is the tail's top bit, so a claim and close() are ordered on
// one word: every claim close() did not fail counts in the tail close()
// leaves, and the ring is drained only when the head reaches that tail --
// a cell claimed before close() but not yet filled is waited for, never
// dropped.  The mutex and the two condition variables serve only to sleep
// on an empty or a full ring; a thread that changes the ring wakes the
// other side only when it counts sleepers there.
//
// Thread-safety: all methods safe from any thread.  FIFO per queue; per
// producer that means program order, which Batch_scheduler preserves per
// tenant.  close() wakes everyone: producers fail fast, consumers drain
// what was accepted, then see 0.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.h"
#include "serve/request.h"

namespace seda::serve {

class Admission_queue {
public:
    explicit Admission_queue(std::size_t capacity);

    /// Blocks while the queue is full; returns false (leaving `r` intact)
    /// only when the queue has been closed.
    [[nodiscard]] bool push(Request& r);

    /// Blocks until at least one request is available (or the queue is
    /// closed and drained), then appends up to `max` requests to `out` in
    /// FIFO order without waiting for more.  Returns the number appended;
    /// 0 is the shutdown signal.
    std::size_t pop_batch(std::vector<Request>& out, std::size_t max);

    /// Rejects future pushes and wakes every waiter.  Idempotent; requests
    /// already accepted remain poppable.
    void close();

    /// Requests accepted and not yet popped (exact when no push or pop is
    /// in progress).
    [[nodiscard]] std::size_t size() const;

    [[nodiscard]] std::size_t capacity() const { return capacity_; }

private:
    enum class Claim : u8 { done, full, closed };

    /// `seq` is read and written seq_cst: a cell store followed by the
    /// sleeper-count load in wake() must not reorder (a fence would do, but
    /// ThreadSanitizer does not model fences).
    struct alignas(64) Cell {
        std::atomic<u64> seq{0};
        Request req;
    };

    /// Counts its thread as a sleeper on one side for its lifetime.
    class Sleeper;

    static constexpr u64 k_closed = u64{1} << 63;  ///< tail_ bit set by close()

    /// One lock-free push attempt: moves `r` in only on Claim::done.
    Claim try_push(Request& r);
    /// Lock-free pops of the requests already published, up to `max`.
    std::size_t try_pop(std::vector<Request>& out, std::size_t max);
    /// Closed, and every request accepted before close() has been popped.
    [[nodiscard]] bool drained() const;
    /// Wakes the threads counted in `sleepers` after this one changed the
    /// ring.
    void wake(const std::atomic<u32>& sleepers, std::condition_variable& cv);

    const std::size_t capacity_;
    const std::unique_ptr<Cell[]> cells_;
    alignas(64) std::atomic<u64> tail_{0};  ///< next position to claim | k_closed
    alignas(64) std::atomic<u64> head_{0};  ///< next position to pop

    alignas(64) std::mutex mutex_;  ///< sleeping only; guards no ring state
    std::condition_variable ready_;  ///< wakes consumers (data available / closed)
    std::condition_variable space_;  ///< wakes producers (space available / closed)
    std::atomic<u32> sleeping_consumers_{0};
    std::atomic<u32> sleeping_producers_{0};
};

}  // namespace seda::serve
