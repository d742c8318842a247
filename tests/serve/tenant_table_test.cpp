// Tenant_table: lock-free reads (size/accepting/find) racing add() and
// evict() on another thread, across the table's segment boundaries.  The
// TSan job runs it.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "common/error.h"
#include "runtime/thread_pool.h"
#include "serve/tenant.h"

namespace seda::serve {
namespace {

constexpr u32 k_tenants = 40;  ///< spans the first three segments (8 + 16 + 32 slots)

const std::vector<u8> k_master(16, 0x42);

TEST(TenantTable, ReadersRaceAddAndEvict)
{
    runtime::Thread_pool pool(1);
    Tenant_table table;
    std::atomic<bool> writing{true};

    // Every odd id is evicted right after the next id is added.  A reader
    // must always find every id below size(), with its own id, and never
    // see an evicted tenant accepting again.
    std::vector<std::thread> readers;
    std::vector<u64> reads(2, 0);
    for (std::size_t r = 0; r < reads.size(); ++r)
        readers.emplace_back([&, r] {
            std::vector<bool> evicted(k_tenants, false);
            do {
                const std::size_t n = table.size();
                ASSERT_LE(n, k_tenants);
                for (u32 id = 0; id < n; ++id) {
                    const Tenant* t = table.find(id);
                    ASSERT_NE(t, nullptr) << "id " << id << " below size " << n;
                    EXPECT_EQ(t->id(), id);
                    const bool accepting = table.accepting(id);
                    EXPECT_FALSE(accepting && evicted[id]) << "id " << id << " came back";
                    if (!accepting) evicted[id] = true;
                    ++reads[r];
                }
                EXPECT_EQ(table.find(std::numeric_limits<u32>::max()), nullptr);
                EXPECT_FALSE(table.accepting(std::numeric_limits<u32>::max()));
            } while (writing.load());
        });

    for (u32 id = 0; id < k_tenants; ++id) {
        EXPECT_EQ(table.add(k_master, k_master, {}, pool), id);
        if (id % 2 == 0 && id > 0) table.evict(id - 1);
    }
    writing = false;
    for (auto& t : readers) t.join();

    EXPECT_EQ(table.size(), k_tenants);
    for (u32 id = 0; id < k_tenants; ++id) {
        ASSERT_NE(table.find(id), nullptr);
        EXPECT_EQ(table.accepting(id), id % 2 == 0 || id == k_tenants - 1) << "id " << id;
    }
    EXPECT_THROW(table.evict(k_tenants), Seda_error);
    EXPECT_GT(reads[0] + reads[1], 0u);
}

}  // namespace
}  // namespace seda::serve
