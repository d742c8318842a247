// Dram_tap: the bus-adversary seam on the protected backing store.
//
// A physical attacker sits BETWEEN the accelerator and the DRAM array: it
// can mutate stored ciphertext and metadata while the bus is otherwise
// quiet, but it cannot pause the chip mid-verification.  The seam models
// exactly that window: core::Secure_memory owns an optional tap pointer and
// the protected data path *pulls* it at the head of every bulk flush
// (runtime::Secure_session::write_units / read_units, which the serving
// layer calls for every flush, retries included) -- i.e. between
// scheduler flushes, on the one thread that owns the memory at that
// moment.  Implementations (the attack campaign's Fault_injector) run
// their queued mutations inside the pull, so fault injection is serialized
// against ALL legitimate traffic while the clean path pays one atomic load
// and a branch.
#pragma once

namespace seda::dram {

class Dram_tap {
public:
    virtual ~Dram_tap() = default;

    /// Invoked by the protected data path between flushes, on the thread
    /// that currently owns the memory.  Implementations may mutate stored
    /// units (tamper / splice / rollback) but must not call back into the
    /// session's batch interface.
    virtual void pull() = 0;
};

}  // namespace seda::dram
