#pragma once
// Adapts rt::Pipeline<T> to the arbiter's type-erased hot-swap handle
// (arb::TenantEndpoint, docs/ARBITER.md). Bind with
// Arbiter::bind_endpoint(id, &endpoint); on each rearbitration whose grant
// changes this tenant's budget the arbiter calls apply(next), which is one
// Pipeline::retarget. The pipeline diffs `next` against the plan it
// actually runs and tells live from parked by itself, so the owner flips
// nothing around run(). rebuild_required leaves the pipeline untouched;
// the owner rebuilds it from the plan in its TenantStatus.

#include "arb/arbiter.hpp"
#include "rt/pipeline.hpp"

namespace amp::rt {

template <typename T>
class PipelineTenantEndpoint final : public arb::TenantEndpoint {
public:
    explicit PipelineTenantEndpoint(Pipeline<T>& pipeline)
        : pipeline_(&pipeline)
    {
    }

    [[nodiscard]] plan::SwapOutcome apply(const plan::ExecutionPlan& next) override
    {
        return pipeline_->retarget(next);
    }

private:
    Pipeline<T>* pipeline_;
};

} // namespace amp::rt
