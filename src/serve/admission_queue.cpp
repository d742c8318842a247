#include "serve/admission_queue.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace seda::serve {

class Admission_queue::Sleeper {
public:
    explicit Sleeper(std::atomic<u32>& count) : count_(count) { count_.fetch_add(1); }
    ~Sleeper() { count_.fetch_sub(1, std::memory_order_relaxed); }

    Sleeper(const Sleeper&) = delete;
    Sleeper& operator=(const Sleeper&) = delete;

private:
    std::atomic<u32>& count_;
};

Admission_queue::Admission_queue(std::size_t capacity)
    : capacity_(capacity),
      cells_(capacity >= 1 ? std::make_unique<Cell[]>(capacity) : nullptr)
{
    require(capacity >= 1, "Admission_queue: capacity must be >= 1");
    for (std::size_t i = 0; i < capacity_; ++i)
        cells_[i].seq.store(2 * u64{i}, std::memory_order_relaxed);
}

Admission_queue::Claim Admission_queue::try_push(Request& r)
{
    u64 pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
        if ((pos & k_closed) != 0) return Claim::closed;
        Cell& cell = cells_[pos % capacity_];
        const u64 seq = cell.seq.load();
        if (seq == 2 * pos) {
            // A failed CAS reloads `pos`, closed bit included.
            if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
                cell.req = std::move(r);
                cell.seq.store(2 * pos + 1);
                return Claim::done;
            }
        } else if (seq < 2 * pos) {
            // The cell still serves the position one lap back: the ring is
            // full, unless the tail moved on while we looked.
            const u64 now = tail_.load(std::memory_order_relaxed);
            if (now == pos) return Claim::full;
            pos = now;
        } else {
            pos = tail_.load(std::memory_order_relaxed);  // another producer took pos
        }
    }
}

std::size_t Admission_queue::try_pop(std::vector<Request>& out, std::size_t max)
{
    std::size_t take = 0;
    u64 pos = head_.load(std::memory_order_relaxed);
    while (take < max) {
        Cell& cell = cells_[pos % capacity_];
        const u64 seq = cell.seq.load();
        if (seq == 2 * pos + 1) {
            if (head_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
                out.push_back(std::move(cell.req));
                cell.seq.store(2 * (pos + capacity_));
                ++pos;
                ++take;
            }
        } else if (seq < 2 * pos + 1) {
            break;  // empty, or claimed but not yet published
        } else {
            pos = head_.load(std::memory_order_relaxed);  // another consumer took pos
        }
    }
    return take;
}

bool Admission_queue::closed() const
{
    return (tail_.load(std::memory_order_acquire) & k_closed) != 0;
}

bool Admission_queue::drained() const
{
    const u64 tail = tail_.load(std::memory_order_acquire);
    return (tail & k_closed) != 0 && (tail & ~k_closed) == head_.load(std::memory_order_acquire);
}

void Admission_queue::wake(const std::atomic<u32>& sleepers, std::condition_variable& cv,
                           bool locked)
{
    // The caller's cell store and this load are seq_cst, like a sleeper's
    // count and its reads of the cells: either this load sees the sleeper,
    // or the sleeper's next look at the ring sees the caller's change.
    if (sleepers.load() == 0) return;
    // A sleeper counts itself and tests the ring under mutex_, so taking it
    // here means the sleeper is either already waiting or will see the change.
    if (!locked) {
        std::lock_guard lock(mutex_);
    }
    cv.notify_all();
}

bool Admission_queue::push(Request& r)
{
    Claim claim = try_push(r);
    if (claim == Claim::full) {
        std::unique_lock lock(mutex_);
        const Sleeper sleeping(sleeping_producers_);
        space_.wait(lock, [&] { return (claim = try_push(r)) != Claim::full; });
    }
    if (claim == Claim::closed) return false;
    wake(sleeping_consumers_, ready_, false);
    return true;
}

std::size_t Admission_queue::pop_batch(std::vector<Request>& out, std::size_t max,
                                       std::chrono::microseconds max_wait)
{
    require(max >= 1, "Admission_queue::pop_batch: max must be >= 1");
    std::size_t take = try_pop(out, max);
    if (take == 0) {
        std::unique_lock lock(mutex_);
        const Sleeper sleeping(sleeping_consumers_);
        ready_.wait(lock, [&] { return (take = try_pop(out, max)) > 0 || drained(); });
    }
    if (take > 0 && take < max && max_wait.count() > 0 && !closed()) {
        // Wake producers after EVERY pop: each one frees capacity, and a
        // producer blocked on a full ring is exactly who could fill this
        // window.
        wake(sleeping_producers_, space_, false);
        const auto deadline = std::chrono::steady_clock::now() + max_wait;
        std::unique_lock lock(mutex_);
        const Sleeper sleeping(sleeping_consumers_);
        while (take < max && !closed()) {
            std::size_t got = 0;
            if (!ready_.wait_until(lock, deadline, [&] {
                    return (got = try_pop(out, max - take)) > 0 || closed();
                }))
                break;  // window expired
            take += got;
            if (got > 0) wake(sleeping_producers_, space_, true);
        }
    }
    if (take > 0) wake(sleeping_producers_, space_, false);  // a burst may free several
    return take;
}

void Admission_queue::close()
{
    tail_.fetch_or(k_closed);
    {
        std::lock_guard lock(mutex_);
    }
    ready_.notify_all();
    space_.notify_all();
}

std::size_t Admission_queue::size() const
{
    // Head first: it never passes the tail, so the later tail read is ahead.
    const u64 head = head_.load(std::memory_order_acquire);
    const u64 tail = tail_.load(std::memory_order_acquire) & ~k_closed;
    return std::min<std::size_t>(tail - head, capacity_);
}

}  // namespace seda::serve
