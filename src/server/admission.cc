#include "src/server/admission.h"

#include <algorithm>

namespace cobra {

uint64_t
estimateRequestCostBytes(const RequestFrame &req, size_t pool_threads)
{
    const uint64_t threads = std::max<size_t>(1, pool_threads);
    const uint64_t updates = std::max<uint64_t>(1, req.numUpdates());
    // Widest tuple any served kernel bins is 8 B (NeighborPopulate's
    // index+payload). The x2 was sized for engines that kept a second
    // copy of the stream; none does now, but the factor stays as
    // headroom until the estimate is re-fitted from measured peaks.
    // Plus the bin-boundary bookkeeping that scales with bins.
    const uint64_t tuple_storage = updates * 8 * 2;
    const uint64_t bin_tables =
        uint64_t{req.bins} * 16 * threads; // offsets/counts per thread
    // WC staging: wcLines 64 B lines per bin per thread, but engines
    // cap the resident set; charge the configured plan directly.
    const uint64_t wc_lines =
        uint64_t{req.bins} * req.wcLines * 64 * threads;
    // Output + reference arrays the kernel owns (certification keeps a
    // serial golden copy): numIndices words each, plus CSR offsets.
    const uint64_t outputs = req.numIndices * 4 * 2 + req.numIndices * 8;
    const uint64_t slack = 1ull << 20;
    return tuple_storage + bin_tables + wc_lines + outputs + slack;
}

AdmissionController::AdmissionController(AdmissionConfig cfg)
    : cfg_(cfg), global_budget_(cfg.globalBudgetBytes)
{
}

Status
AdmissionController::tryAdmit(uint64_t tenant, uint64_t cost_bytes)
{
    MemoryBudget *tenant_budget = nullptr;
    {
        std::lock_guard<std::mutex> lk(mtx_);
        if (cfg_.maxOutstandingGlobal != 0 &&
            outstanding_global_ >= cfg_.maxOutstandingGlobal)
            return Status(ErrorCode::kUnavailable,
                          "server at capacity: " +
                              std::to_string(outstanding_global_) +
                              " requests outstanding; retry later");
        uint32_t &mine = outstanding_tenant_[tenant];
        if (cfg_.maxOutstandingPerTenant != 0 &&
            mine >= cfg_.maxOutstandingPerTenant)
            return Status(ErrorCode::kUnavailable,
                          "tenant " + std::to_string(tenant) +
                              " at its outstanding cap of " +
                              std::to_string(
                                  cfg_.maxOutstandingPerTenant) +
                              "; retry later");
        if (cfg_.tenantBudgetBytes != 0) {
            auto &slot = tenant_budgets_[tenant];
            if (!slot)
                slot = std::make_unique<MemoryBudget>(
                    cfg_.tenantBudgetBytes);
            tenant_budget = slot.get();
        }
        // Reserve the slots under the lock; budgets are charged after
        // (they are thread-safe, and a failed charge rolls these back).
        ++outstanding_global_;
        ++mine;
    }

    // Global budget: full means the *service* is over-committed —
    // transient from this tenant's point of view, so kUnavailable.
    try {
        global_budget_.charge(cost_bytes);
    } catch (const Error &e) {
        std::lock_guard<std::mutex> lk(mtx_);
        --outstanding_global_;
        --outstanding_tenant_[tenant];
        return Status(ErrorCode::kUnavailable,
                      std::string("global memory reservation failed: ") +
                          e.what() + "; retry later");
    }
    // Tenant budget: full means this tenant's own quota is the
    // pressure — kResourceExhausted, backing off won't free it.
    if (tenant_budget) {
        try {
            tenant_budget->charge(cost_bytes);
        } catch (const Error &e) {
            global_budget_.release(cost_bytes);
            std::lock_guard<std::mutex> lk(mtx_);
            --outstanding_global_;
            --outstanding_tenant_[tenant];
            return Status(ErrorCode::kResourceExhausted,
                          "tenant " + std::to_string(tenant) +
                              " memory quota: " + e.what());
        }
    }
    return Status::Ok();
}

void
AdmissionController::release(uint64_t tenant, uint64_t cost_bytes)
{
    global_budget_.release(cost_bytes);
    std::lock_guard<std::mutex> lk(mtx_);
    --outstanding_global_;
    --outstanding_tenant_[tenant];
    if (auto it = tenant_budgets_.find(tenant);
        it != tenant_budgets_.end())
        it->second->release(cost_bytes);
}

uint32_t
AdmissionController::outstanding() const
{
    std::lock_guard<std::mutex> lk(mtx_);
    return outstanding_global_;
}

} // namespace cobra
