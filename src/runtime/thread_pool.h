// Fixed-size worker pool with futures-based join and exception propagation.
//
// This is the execution substrate for everything parallel in the repo: the
// suite driver fans (scheme x model x NPU) cells across it, Secure_session
// shards tile crypto across it, and future scaling work (request serving,
// multi-tenant traffic) is expected to reuse it rather than spawn ad-hoc
// threads.  Design points:
//
//   * submit() returns a std::future; an exception thrown by the task is
//     captured there and rethrows at .get(), so worker threads never die.
//   * parallel_for() splits work over the workers *plus the calling
//     thread*: the caller runs shard 0 instead of sitting blocked in the
//     join.  It joins *every* shard before rethrowing the first failure --
//     callers' stack frames referenced by sibling shards must stay alive
//     until all shards stop touching them.
//   * submit() never runs a task inline (short of shutdown): a pool of one
//     worker still runs it on that worker, so code behaves identically --
//     just serially -- at jobs=1.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/task_queue.h"

namespace seda::runtime {

/// Balanced contiguous [begin, end) shards of `n` items over at most
/// `shards` workers: the first `n % shards` ranges get one extra item and
/// empty ranges are never produced.  parallel_for uses it with
/// `shards = size() + 1`, so shard boundaries (and thus Secure_session's
/// per-shard engine pairing) are pure arithmetic on the item and worker
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

    /// Splits [0, n) into shard_ranges(n, size() + 1) and runs
    /// `body(shard_index, range)` for each: shard 0 on the calling thread,
    /// the rest on the pool, returning once every shard has finished.  The
    /// first shard exception (in shard order) is rethrown after the join.
    /// Calling it from a pool task can still deadlock a saturated pool.
    void parallel_for(std::size_t n,
                      const std::function<void(std::size_t, Index_range)>& body);

private:
    void worker_loop();

    Task_queue queue_;
    std::vector<std::thread> workers_;
};

}  // namespace seda::runtime
