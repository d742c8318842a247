// Fixed-size worker pool with futures-based submit and a work-sharing
// parallel_for.
//
// This is the execution substrate for everything parallel in the repo: the
// suite driver fans (scheme x model x NPU) cells across it, Secure_session
// spreads tile crypto across it, and future scaling work (request serving,
// multi-tenant traffic) is expected to reuse it rather than spawn ad-hoc
// threads.  Design points:
//
//   * submit() returns a std::future; an exception thrown by the task is
//     captured there and rethrows at .get(), so worker threads never die.
//   * parallel_for() cuts [0, n) into chunks of at least 64 items and lets
//     the calling thread and up to size() helper tasks claim them from one
//     atomic counter.  The caller claims too, so it never sits blocked
//     behind helpers queued after other callers' work: whatever no helper
//     has claimed, the caller runs.  It returns once every chunk has
//     finished -- the body references the caller's stack frame -- and only
//     then rethrows the lowest-indexed chunk's failure.
//   * submit() never runs a task inline (short of shutdown): a pool of one
//     worker still runs it on that worker, so code behaves identically --
//     just serially -- at jobs=1.
#pragma once

#include <cstddef>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/task_queue.h"

namespace seda::runtime {

/// Balanced contiguous [begin, end) shards of `n` items over at most
/// `shards` parts: the first `n % shards` ranges get one extra item and
/// empty ranges are never produced.  parallel_for cuts its chunks with the
/// same arithmetic, so chunk bounds depend only on the item and worker
/// counts.
struct Index_range {
    std::size_t begin = 0;
    std::size_t end = 0;

    [[nodiscard]] std::size_t size() const { return end - begin; }
    [[nodiscard]] bool operator==(const Index_range&) const = default;
};

[[nodiscard]] std::vector<Index_range> shard_ranges(std::size_t n, std::size_t shards);

class Thread_pool {
public:
    /// `workers == 0` means default_workers().
    explicit Thread_pool(std::size_t workers = 0);

    /// Closes the queue and joins.  Tasks already submitted still run.
    ~Thread_pool();

    Thread_pool(const Thread_pool&) = delete;
    Thread_pool& operator=(const Thread_pool&) = delete;

    [[nodiscard]] std::size_t size() const { return workers_.size(); }

    /// Hardware concurrency with a floor of 1 (hardware_concurrency() may
    /// legally report 0).
    [[nodiscard]] static std::size_t default_workers();

    /// Enqueues `fn` and returns the future holding its result (or its
    /// exception).  Safe from any thread, including pool workers -- but a
    /// task that *blocks* on another task's future can deadlock a saturated
    /// pool; prefer structuring work as independent cells.
    template <typename Fn>
    [[nodiscard]] std::future<std::invoke_result_t<std::decay_t<Fn>>> submit(Fn&& fn)
    {
        using Result = std::invoke_result_t<std::decay_t<Fn>>;
        // shared_ptr because Task_queue::Task (std::function) requires a
        // copyable callable while packaged_task is move-only.
        auto task = std::make_shared<std::packaged_task<Result()>>(std::forward<Fn>(fn));
        std::future<Result> future = task->get_future();
        if (!queue_.push([task] { (*task)(); })) {
            // Pool is shutting down: run inline so the future is never
            // abandoned in a never-ready state.
            (*task)();
        }
        return future;
    }

    /// Runs `body(executor, range)` over chunks that cover [0, n) exactly
    /// once: shard_ranges(n, clamp(n / 64, 1, 8 * (size() + 1))), so every
    /// chunk holds at least 64 items and a call under 128 items is one
    /// chunk, run inline with no task and no allocation.  Executor 0 is the
    /// calling thread and executor 1 + w is pool worker w.  Within a call
    /// each executor runs its chunks one at a time, so state indexed by
    /// executor needs no lock; which executor runs which chunk depends on
    /// scheduling.  Returns once
    /// every chunk has finished, then rethrows the exception of the
    /// lowest-indexed failing chunk.  The caller never waits for a helper
    /// that has not started, so a call from a pool task cannot deadlock.
    template <typename Body>
    void parallel_for(std::size_t n, Body&& body)
    {
        using Fn = std::remove_reference_t<Body>;
        run_chunks(n,
                   [](void* erased, std::size_t executor, Index_range range) {
                       (*static_cast<Fn*>(erased))(executor, range);
                   },
                   const_cast<void*>(static_cast<const void*>(std::addressof(body))));
    }

private:
    using Chunk_fn = void (*)(void* body, std::size_t executor, Index_range range);
    struct Chunk_job;

    void run_chunks(std::size_t n, Chunk_fn fn, void* body);
    void worker_loop(std::size_t worker);

    Task_queue queue_;
    std::vector<std::thread> workers_;
};

}  // namespace seda::runtime
