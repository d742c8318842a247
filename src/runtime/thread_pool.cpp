#include "runtime/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>

namespace seda::runtime {

namespace {

// parallel_for's chunk geometry.  64 items per chunk at least keeps one
// claim (an atomic add) and one helper wake-up small next to the work of
// 64 secure-memory units; up to 8 chunks per executor let helpers that
// start late (queued behind another caller's chunks) still take a share.
constexpr std::size_t k_min_chunk_items = 64;
constexpr std::size_t k_chunks_per_executor = 8;

// 1 + w on pool worker w, so a helper task knows its executor index.  A
// thread works for at most one pool, and helpers run only on their pool.
thread_local std::size_t t_executor = 0;

Index_range nth_shard(std::size_t n, std::size_t shards, std::size_t s)
{
    const std::size_t base = n / shards;
    const std::size_t extra = n % shards;
    const std::size_t begin = s * base + std::min(s, extra);
    return {begin, begin + base + (s < extra ? 1 : 0)};
}

}  // namespace

std::vector<Index_range> shard_ranges(std::size_t n, std::size_t shards)
{
    std::vector<Index_range> ranges;
    if (n == 0 || shards == 0) return ranges;
    const std::size_t used = std::min(n, shards);
    ranges.reserve(used);
    for (std::size_t s = 0; s < used; ++s) ranges.push_back(nth_shard(n, used, s));
    return ranges;
}

/// One multi-chunk parallel_for call.  The caller and its helper tasks
/// share it, so a helper that starts after the caller has returned finds
/// every chunk claimed and leaves without touching `body`.
struct Thread_pool::Chunk_job {
    Chunk_job(Chunk_fn f, void* b, std::size_t items, std::size_t count)
        : fn(f), body(b), n(items), chunks(count)
    {
    }

    /// Claims and runs chunks until none is left, then counts the ones it
    /// ran as done; whoever completes the count wakes the caller.
    void work(std::size_t executor)
    {
        std::size_t ran = 0;
        for (std::size_t c; (c = next.fetch_add(1, std::memory_order_relaxed)) < chunks; ++ran) {
            try {
                fn(body, executor, nth_shard(n, chunks, c));
            } catch (...) {
                std::lock_guard lock(mutex);
                if (!failure || c < failed_chunk) {
                    failure = std::current_exception();
                    failed_chunk = c;
                }
            }
        }
        if (ran == 0) return;
        std::lock_guard lock(mutex);
        done += ran;
        if (done == chunks) all_done.notify_one();
    }

    const Chunk_fn fn;
    void* const body;
    const std::size_t n;
    const std::size_t chunks;
    std::atomic<std::size_t> next{0};  ///< next chunk to claim

    std::mutex mutex;
    std::condition_variable all_done;
    std::size_t done = 0;            ///< chunks finished
    std::exception_ptr failure;      ///< of the lowest-indexed failing chunk
    std::size_t failed_chunk = 0;
};

std::size_t Thread_pool::default_workers()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

Thread_pool::Thread_pool(std::size_t workers)
{
    const std::size_t count = workers == 0 ? default_workers() : workers;
    workers_.reserve(count);
    for (std::size_t w = 0; w < count; ++w)
        workers_.emplace_back([this, w] { worker_loop(w); });
}

Thread_pool::~Thread_pool()
{
    queue_.close();
    for (auto& t : workers_) t.join();
}

void Thread_pool::worker_loop(std::size_t worker)
{
    t_executor = 1 + worker;
    // packaged_task and Chunk_job catch their tasks' exceptions; the loop
    // itself only ever sees clean returns.
    while (auto task = queue_.pop()) (*task)();
}

void Thread_pool::run_chunks(std::size_t n, Chunk_fn fn, void* body)
{
    if (n == 0) return;
    const std::size_t chunks =
        std::clamp(n / k_min_chunk_items, std::size_t{1}, k_chunks_per_executor * (size() + 1));
    if (chunks == 1) {
        fn(body, 0, {0, n});
        return;
    }

    const auto job = std::make_shared<Chunk_job>(fn, body, n, chunks);
    const std::size_t helpers = std::min(size(), chunks - 1);
    for (std::size_t h = 0; h < helpers; ++h)
        if (!queue_.push([job] { job->work(t_executor); })) break;

    job->work(0);
    // Only chunks some executor has claimed can still be running: the
    // caller took every chunk no helper got to.
    std::unique_lock lock(job->mutex);
    job->all_done.wait(lock, [&] { return job->done == chunks; });
    if (job->failure) std::rethrow_exception(job->failure);
}

}  // namespace seda::runtime
