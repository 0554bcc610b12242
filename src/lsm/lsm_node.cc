#include "src/lsm/lsm_node.h"

#include <utility>

namespace mitt::lsm {

LsmNode::LsmNode(sim::Simulator* sim, int node_id, const Options& options)
    : sim_(sim),
      node_id_(node_id),
      options_(options),
      degraded_(
          sim, node_id, options.degraded,
          [this](uint64_t key, DurationNs deadline, obs::TraceContext,
                 resilience::DegradedReadLoop::ReplyFn done) {
            // LsmTree::Get surfaces the block read's EBUSY with the OS hint
            // for that one block; re-stamp it with the device floor (see
            // lsm_node.h).
            lsm_->Get(key, deadline, [this, done = std::move(done)](Status s) {
              done(s.busy() ? Status::Ebusy(os_->MinDeviceLatency()) : s);
            });
          },
          [this](InlineFunction<void()> fn) {
            cpu_->Execute(options_.handler_cpu / 2, std::move(fn));
          }) {
  os::OsOptions os_options = options_.os;
  os_options.seed ^= static_cast<uint64_t>(node_id) * 0x2000'0003ULL;
  os_ = std::make_unique<os::Os>(sim_, os_options);
  cpu_ = std::make_unique<cluster::CpuPool>(sim_, options_.cpu_cores);
  lsm_ = std::make_unique<LsmTree>(sim_, os_.get(), options_.lsm);
}

void LsmNode::HandleGet(uint64_t key, DurationNs deadline,
                        std::function<void(Status)> reply) {
  cpu_->Execute(options_.handler_cpu / 2, [this, key, deadline, reply = std::move(reply)] {
    lsm_->Get(key, deadline, [this, reply = std::move(reply)](Status s) {
      if (s.busy()) {
        ++ebusy_returned_;
      }
      cpu_->Execute(options_.handler_cpu / 2, [reply, s] { reply(s); });
    });
  });
}

void LsmNode::HandleDegradedGet(uint64_t key, DurationNs deadline,
                                std::function<void(Status)> reply) {
  degraded_.Serve(key, deadline, {}, os_->MinDeviceLatency(), std::move(reply));
}

void LsmNode::HandlePut(uint64_t key, std::function<void(Status)> reply) {
  cpu_->Execute(options_.handler_cpu / 2, [this, key, reply = std::move(reply)] {
    lsm_->Put(key, [this, reply = std::move(reply)](Status s) {
      cpu_->Execute(options_.handler_cpu / 2, [reply, s] { reply(s); });
    });
  });
}

}  // namespace mitt::lsm
