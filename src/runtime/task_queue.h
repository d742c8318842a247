// Bounded-by-lifetime MPMC task queue: the hand-off between Thread_pool's
// submitters and its workers.
//
// Semantics are deliberately minimal: push() enqueues a type-erased thunk,
// pop() blocks until a thunk or closure arrives, close() wakes every waiter
// and makes further pushes fail.  Tasks already queued at close() time are
// still drained -- a pool destructor must run what was promised, because
// submitters may already hold futures for it.
//
// Thread-safety: every method is safe from any thread concurrently (one
// mutex guards the deque; the condition variable carries wakeups).  FIFO
// order is guaranteed per queue, but with multiple workers popping, task
// *completion* order is unspecified -- determinism must come from the
// caller (see parallel_suite.h's ordered merge and secure_session.h's
// per-unit independence).
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>

namespace seda::runtime {

class Task_queue {
public:
    using Task = std::function<void()>;

    /// Enqueues a task.  Returns false (dropping the task) when the queue
    /// has been closed.
    bool push(Task task)
    {
        {
            std::lock_guard lock(mutex_);
            if (closed_) return false;
            tasks_.push_back(std::move(task));
        }
        ready_.notify_one();
        return true;
    }

    /// Blocks until a task is available or the queue is closed and drained;
    /// returns nullopt only in the latter case (worker shutdown signal).
    std::optional<Task> pop()
    {
        std::unique_lock lock(mutex_);
        ready_.wait(lock, [&] { return closed_ || !tasks_.empty(); });
        if (tasks_.empty()) return std::nullopt;
        Task task = std::move(tasks_.front());
        tasks_.pop_front();
        return task;
    }

    /// Rejects future pushes and wakes every blocked pop().  Idempotent.
    void close()
    {
        {
            std::lock_guard lock(mutex_);
            closed_ = true;
        }
        ready_.notify_all();
    }

private:
    mutable std::mutex mutex_;
    std::condition_variable ready_;
    std::deque<Task> tasks_;
    bool closed_ = false;
};

}  // namespace seda::runtime
