#pragma once
// Adapts rt::Pipeline<T> to the arbiter's type-erased hot-swap handle
// (arb::TenantEndpoint, docs/ARBITER.md). Bind with
// Arbiter::bind_endpoint(id, &endpoint); on each rearbitration whose grant
// changes this tenant's budget the arbiter calls apply(next), which is one
// Pipeline::retarget under the endpoint's SwapPolicy. The pipeline diffs
// `next` against the plan it actually runs and tells live from parked by
// itself, so the owner flips nothing around run(). rebuild_required leaves
// the pipeline untouched; the owner rebuilds it from the plan in its
// TenantStatus.

#include "arb/arbiter.hpp"
#include "rt/pipeline.hpp"

#include <chrono>

namespace amp::rt {

template <typename T>
class PipelineTenantEndpoint final : public arb::TenantEndpoint {
public:
    explicit PipelineTenantEndpoint(Pipeline<T>& pipeline,
                                    SwapPolicy policy = SwapPolicy::frame_first,
                                    std::chrono::milliseconds reclaim_timeout =
                                        std::chrono::milliseconds{200})
        : pipeline_(&pipeline)
        , policy_(policy)
        , reclaim_timeout_(reclaim_timeout)
    {
    }

    [[nodiscard]] plan::SwapOutcome apply(const plan::ExecutionPlan& next) override
    {
        return pipeline_->retarget(next, policy_, reclaim_timeout_);
    }

private:
    Pipeline<T>* pipeline_;
    SwapPolicy policy_;
    std::chrono::milliseconds reclaim_timeout_;
};

} // namespace amp::rt
