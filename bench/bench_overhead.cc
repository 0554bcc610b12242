// Implementation microbenchmarks: the wall-clock costs the paper puts
// bounds on —
//   * a MittCFQ deadline check must stay O(1)-ish and well under 5us/IO
//     even with many processes pending (§4.2);
//   * MittSSD's per-IO overhead is ~300ns (§4.3);
//   * AddrCheck costs ~82ns of kernel time (§4.4) — here we measure our
//     page-table probe;
//   * the simulator itself must sustain millions of events/second.
//
// Each probe is a plain steady-clock loop of kCallsPerRep calls; every line
// reports the fastest of kReps reps (min-of-N de-noises shared hosts).
// Report-only: nothing here is gated. Writes BENCH_overhead.json into the cwd.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/device/disk_profile.h"
#include "src/device/ssd_profile.h"
#include "src/obs/export.h"
#include "src/os/mitt_cfq.h"
#include "src/os/mitt_noop.h"
#include "src/os/mitt_ssd.h"
#include "src/os/page_cache.h"
#include "src/sim/simulator.h"

namespace {

using namespace mitt;

constexpr int kReps = 5;
constexpr uint64_t kCallsPerRep = 1'000'000;

// Keeps probe results observable so the loops are not optimized away.
volatile uint64_t g_sink = 0;

// Fastest of kReps timed runs of `calls` invocations of body(i), in ns/call.
template <typename F>
double MinNsPerCall(uint64_t calls, F&& body) {
  double best = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < calls; ++i) {
      body(i);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count() /
                      static_cast<double>(calls);
    best = rep == 0 ? ns : std::min(best, ns);
  }
  return best;
}

device::DiskProfile MakeDiskProfile() {
  sim::Simulator sim;
  device::DiskModel disk(&sim, device::DiskParams{}, 1);
  return ProfileDisk(&sim, &disk);
}

device::SsdProfile MakeSsdProfile(const device::SsdModel& ssd) {
  sim::Simulator sim;
  device::SsdModel twin(&sim, ssd.params(), 2);
  return ProfileSsd(&sim, &twin);
}

double MittCfqDeadlineCheck(int procs, uint64_t calls) {
  sim::Simulator sim;
  os::MittCfqPredictor predictor(&sim, MakeDiskProfile(), os::PredictorOptions{},
                                 os::MittCfqOptions{});
  // Load the predictor with pending IOs from `procs` processes.
  std::vector<std::unique_ptr<sched::IoRequest>> pending;
  for (int p = 0; p < procs; ++p) {
    for (int i = 0; i < 8; ++i) {
      auto req = std::make_unique<sched::IoRequest>();
      req->id = static_cast<uint64_t>(p * 100 + i);
      req->pid = p;
      req->offset = static_cast<int64_t>(p) << 30;
      req->size = 4096;
      predictor.ShouldReject(req.get());
      predictor.OnAccepted(req.get());
      pending.push_back(std::move(req));
    }
  }
  sched::IoRequest probe;
  probe.id = 1'000'000;
  probe.pid = 9999;
  probe.offset = 500LL << 30;
  probe.size = 4096;
  probe.deadline = Millis(13);
  return MinNsPerCall(calls, [&](uint64_t) {
    g_sink = g_sink + predictor.ShouldReject(&probe);
    probe.ebusy_flagged = false;
  });
}

double MittNoopDeadlineCheck(uint64_t calls) {
  sim::Simulator sim;
  os::MittNoopPredictor predictor(&sim, MakeDiskProfile(), os::PredictorOptions{});
  sched::IoRequest probe;
  probe.id = 1;
  probe.offset = 100LL << 30;
  probe.size = 4096;
  probe.deadline = Millis(13);
  return MinNsPerCall(calls,
                      [&](uint64_t) { g_sink = g_sink + predictor.ShouldReject(&probe); });
}

double MittSsdDeadlineCheck(uint64_t calls) {
  sim::Simulator sim;
  device::SsdModel ssd(&sim, device::SsdParams{}, 1);
  os::MittSsdPredictor predictor(&sim, &ssd, MakeSsdProfile(ssd), os::PredictorOptions{},
                                 os::MittSsdOptions{});
  sched::IoRequest probe;
  probe.id = 1;
  probe.offset = 5 * ssd.params().page_size;
  probe.size = ssd.params().page_size;
  probe.deadline = kMillisecond;
  return MinNsPerCall(calls,
                      [&](uint64_t) { g_sink = g_sink + predictor.ShouldReject(&probe); });
}

double AddrCheckProbe(uint64_t calls) {
  os::PageCache cache(os::PageCacheParams{});
  cache.Insert(/*file=*/1, /*offset=*/0, /*len=*/1 << 20);
  return MinNsPerCall(calls, [&](uint64_t i) {
    const auto offset = static_cast<int64_t>((i * 4096) % (1 << 20));
    g_sink = g_sink + cache.Resident(1, offset, 1024);
  });
}

// Events/s of a simulator draining 10k pre-scheduled events; scheduling is
// outside the timed region.
double SimulatorEventsPerSec() {
  constexpr int kEvents = 10'000;
  constexpr int kRuns = 100;
  double best_sec = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    double sec = 0;
    for (int run = 0; run < kRuns; ++run) {
      sim::Simulator sim;
      uint64_t counter = 0;
      for (int i = 0; i < kEvents; ++i) {
        sim.Schedule(i, [&counter] { ++counter; });
      }
      const auto t0 = std::chrono::steady_clock::now();
      sim.Run();
      sec += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      g_sink = g_sink + counter;
    }
    best_sec = rep == 0 ? sec : std::min(best_sec, sec);
  }
  return best_sec > 0 ? static_cast<double>(kEvents) * kRuns / best_sec : 0;
}

}  // namespace

int main() {
  std::printf("bench_overhead: ns per call, fastest of %d reps of %llu calls\n", kReps,
              static_cast<unsigned long long>(kCallsPerRep));
  obs::JsonWriter w;
  obs::BeginBenchArtifact(w, "overhead");
  w.Field("reps", kReps).Field("calls_per_rep", kCallsPerRep).Key("ns_per_call").BeginObject();
  // One line per probe, also recorded under ns_per_call.
  auto row = [&w](const std::string& label, const std::string& key, double ns) {
    std::printf("  %-36s%8.1f ns\n", label.c_str(), ns);
    w.Field(key, ns);
  };
  for (const int procs : {1, 16, 128}) {
    char label[64];
    std::snprintf(label, sizeof(label), "MittCFQ deadline check (%3d procs)", procs);
    row(label, "mitt_cfq_procs" + std::to_string(procs), MittCfqDeadlineCheck(procs, kCallsPerRep));
  }
  row("MittNoop deadline check", "mitt_noop", MittNoopDeadlineCheck(kCallsPerRep));
  row("MittSSD deadline check", "mitt_ssd", MittSsdDeadlineCheck(kCallsPerRep));
  row("AddrCheck page-table probe", "addrcheck", AddrCheckProbe(kCallsPerRep));
  const double events_per_sec = SimulatorEventsPerSec();
  std::printf("  simulator event throughput          %8.2f M events/s\n", events_per_sec / 1e6);
  w.EndObject().Field("sim_events_per_sec", events_per_sec).EndObject();
  if (std::string error; !obs::WriteTextFile("BENCH_overhead.json", w.str(), &error)) {
    std::fprintf(stderr, "bench_overhead: cannot write %s\n", error.c_str());
    return 1;
  }
  std::printf("wrote BENCH_overhead.json\n");
  return 0;
}
