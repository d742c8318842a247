#include "runtime/thread_pool.h"

#include <algorithm>
#include <exception>

namespace seda::runtime {

std::vector<Index_range> shard_ranges(std::size_t n, std::size_t shards)
{
    std::vector<Index_range> ranges;
    if (n == 0 || shards == 0) return ranges;
    const std::size_t used = std::min(n, shards);
    const std::size_t base = n / used;
    const std::size_t extra = n % used;
    ranges.reserve(used);
    std::size_t begin = 0;
    for (std::size_t s = 0; s < used; ++s) {
        const std::size_t len = base + (s < extra ? 1 : 0);
        ranges.push_back({begin, begin + len});
        begin += len;
    }
    return ranges;
}

std::size_t Thread_pool::default_workers()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

Thread_pool::Thread_pool(std::size_t workers)
{
    const std::size_t count = workers == 0 ? default_workers() : workers;
    workers_.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

Thread_pool::~Thread_pool()
{
    queue_.close();
    for (auto& t : workers_) t.join();
}

void Thread_pool::worker_loop()
{
    // packaged_task catches the task's exception for the future; the loop
    // itself only ever sees clean returns.
    while (auto task = queue_.pop()) (*task)();
}

void Thread_pool::parallel_for(std::size_t n,
                               const std::function<void(std::size_t, Index_range)>& body)
{
    const auto ranges = shard_ranges(n, size() + 1);
    if (ranges.empty()) return;
    std::vector<std::future<void>> joins;
    joins.reserve(ranges.size() - 1);
    for (std::size_t s = 1; s < ranges.size(); ++s)
        joins.push_back(submit([&body, s, range = ranges[s]] { body(s, range); }));

    // Shard 0 runs here rather than leaving the caller blocked in the join.
    std::exception_ptr first_failure;
    try {
        body(0, ranges.front());
    } catch (...) {
        first_failure = std::current_exception();
    }
    // Join everything before rethrowing: sibling shards may still be
    // touching caller stack frames.
    for (auto& j : joins) {
        try {
            j.get();
        } catch (...) {
            if (!first_failure) first_failure = std::current_exception();
        }
    }
    if (first_failure) std::rethrow_exception(first_failure);
}

}  // namespace seda::runtime
