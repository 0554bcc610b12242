#include "src/kv/doc_store_node.h"

#include <numeric>
#include <utility>

namespace mitt::kv {

DocStoreNode::DocStoreNode(sim::Simulator* sim, int node_id, const Options& options,
                           cluster::CpuPool* shared_cpu)
    : sim_(sim),
      node_id_(node_id),
      options_(options),
      degraded_(
          sim, node_id, options.degraded,
          [this](uint64_t key, DurationNs deadline, obs::TraceContext trace,
                 resilience::DegradedReadLoop::ReplyFn done) {
            if (lsm_ != nullptr) {
              // Every EBUSY of a LevelDB get reports the device floor as its
              // wait hint, not the OS' predicted wait: the get walks several
              // candidate tables and fails on whichever block read was
              // rejected, so that one IO's queue estimate is not the get's
              // wait. The floor makes the loop re-poll soon and escalate by
              // doubling.
              lsm_->Get(
                  SlotOf(key), deadline,
                  [this, done = std::move(done)](Status s) {
                    done(s.busy() ? Status::Ebusy(os_->MinDeviceLatency()) : s);
                  },
                  trace);
              return;
            }
            os_->Read(ReadArgsOf(key, deadline, trace), std::move(done));
          },
          [this](InlineFunction<void()> fn) {
            cpu_->Execute(options_.handler_cpu / 2, std::move(fn));
          }) {
  os::OsOptions os_options = options_.os;
  os_options.seed ^= static_cast<uint64_t>(node_id) * 0x1000'0001ULL;
  os_options.node_label = node_id;
  os_ = std::make_unique<os::Os>(sim_, os_options);
  if (shared_cpu != nullptr) {
    cpu_ = shared_cpu;
  } else {
    owned_cpu_ = std::make_unique<cluster::CpuPool>(sim_, options_.cpu_cores);
    cpu_ = owned_cpu_.get();
  }
  if (options_.access == AccessPath::kLsm) {
    // No flat data file: it would shift every LSM file's disk offset.
    lsm_ = std::make_unique<lsm::LsmTree>(sim_, os_.get(), options_.lsm);
    std::vector<uint64_t> keys(static_cast<size_t>(options_.num_keys));
    std::iota(keys.begin(), keys.end(), 0);
    lsm_->BulkLoad(keys);
  } else {
    data_file_ = os_->CreateFile(data_file_size());
  }
  if (options_.tenant_slots > 0) {
    tenant_gets_.assign(options_.tenant_slots, 0);
    tenant_ebusy_.assign(options_.tenant_slots, 0);
  }
}

void DocStoreNode::WarmCache(double fraction) {
  const auto warm_keys =
      static_cast<int64_t>(static_cast<double>(options_.num_keys) * fraction);
  for (int64_t k = 0; k < warm_keys; ++k) {
    os_->Prefault(data_file_, k * options_.slot_size, options_.doc_size);
  }
}

void DocStoreNode::Pause(DurationNs duration) { cpu_->PauseFor(duration); }

void DocStoreNode::CrashRestart(DurationNs downtime) {
  ++crashes_;
  // The process image is gone: restart with a cold page cache, and stall all
  // request handling for the downtime.
  os_->DropCachedFraction(1.0);
  cpu_->PauseFor(downtime);
}

void DocStoreNode::HandleGet(uint64_t key, DurationNs deadline,
                             std::function<void(Status)> reply, obs::TraceContext trace,
                             uint32_t tenant) {
  ++gets_served_;
  if (tenant < tenant_gets_.size()) {
    ++tenant_gets_[tenant];
  }
  cpu_->Execute(options_.handler_cpu / 2,
                [this, key, deadline, trace, tenant, reply = std::move(reply)] {
                  DoRead(key, deadline, std::move(reply), trace, tenant);
                });
}

void DocStoreNode::DoRead(uint64_t key, DurationNs deadline, std::function<void(Status)> reply,
                          obs::TraceContext trace, uint32_t tenant) {
  const int64_t offset = OffsetOfKey(key);

  auto finish = [this, tenant, reply = std::move(reply)](Status status) {
    if (status.busy()) {
      ++ebusy_returned_;
      if (tenant < tenant_ebusy_.size()) {
        ++tenant_ebusy_[tenant];
      }
    }
    // Reply serialization plus (optionally) the C++ exception unwind the
    // paper eliminated with the exceptionless retry path.
    DurationNs cost = options_.handler_cpu / 2;
    if (status.busy() && options_.exception_on_ebusy) {
      cost += options_.exception_cost;
    }
    cpu_->Execute(cost, [reply, status] { reply(status); });
  };

  if (lsm_ != nullptr) {
    lsm_->Get(SlotOf(key), deadline, std::move(finish), trace);
    return;
  }

  if (options_.access == AccessPath::kMmapAddrCheck) {
    const auto check = os_->AddrCheck(data_file_, offset, options_.doc_size, deadline, trace);
    if (check.status.busy()) {
      // Fail over instantly; the OS keeps swapping the page in behind us.
      // The wait hint is the device floor (the page must come off the disk).
      const Status busy = Status::Ebusy(os_->MinDeviceLatency());
      sim_->Schedule(check.cost, [finish, busy] { finish(busy); });
      return;
    }
    sim_->Schedule(check.cost, [this, offset, finish] {
      os_->MmapAccess(data_file_, offset, options_.doc_size, options_.server_pid, finish);
    });
    return;
  }

  os_->Read(ReadArgsOf(key, deadline, trace), std::move(finish));
}

os::Os::ReadArgs DocStoreNode::ReadArgsOf(uint64_t key, DurationNs deadline,
                                          obs::TraceContext trace) const {
  os::Os::ReadArgs args;
  args.file = data_file_;
  args.offset = OffsetOfKey(key);
  args.size = options_.doc_size;
  args.deadline = deadline;
  args.pid = options_.server_pid;
  args.trace = trace;
  return args;
}

void DocStoreNode::HandleDegradedGet(uint64_t key, DurationNs deadline,
                                     std::function<void(Status)> reply, obs::TraceContext trace) {
  ++gets_served_;
  degraded_.Serve(key, deadline, trace, os_->MinDeviceLatency(), std::move(reply));
}

void DocStoreNode::HandlePut(uint64_t key, std::function<void(Status)> reply) {
  cpu_->Execute(options_.handler_cpu / 2, [this, key, reply = std::move(reply)] {
    auto ack = [this, reply](Status s) {
      cpu_->Execute(options_.handler_cpu / 2, [reply, s] { reply(s); });
    };
    if (lsm_ != nullptr) {
      lsm_->Put(SlotOf(key), std::move(ack));
      return;
    }
    os::Os::WriteArgs args;
    args.file = data_file_;
    args.offset = OffsetOfKey(key);
    args.size = options_.doc_size;
    args.pid = options_.server_pid;
    os_->Write(args, std::move(ack));
  });
}

}  // namespace mitt::kv
