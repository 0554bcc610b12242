// Figure 13 (§7.8.4): MittOS-powered LevelDB + Riak. A 3-node Riak ring of
// LevelDB nodes (kv::AccessPath::kLsm), each bulk-loaded with 600k keys under
// a 512 MB page cache; EC2 disk noise replays on every node. Vanilla Riak
// (Base) waits out the noise; MittOS attaches a 13 ms deadline to LevelDB's
// block reads, and EBUSY propagates up to the client, which fails over to
// the next replica.
//   (a) get() latency percentiles, MittCFQ (MittOS) vs Base;
//   (b) node 0's timeline in 500 ms bins: whether it was under noise, and
//       how many EBUSYs it returned (the MittOS run's kEbusyReject spans).
//
// Run:  ./build/bench/bench_fig13_riak

#include <cstdio>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/noise/ec2_noise.h"
#include "src/obs/gate.h"

namespace {

using namespace mitt;

constexpr DurationNs kBin = Millis(500);

}  // namespace

int main() {
  harness::ExperimentOptions opt;
  opt.num_nodes = 3;
  opt.num_clients = 4;
  opt.measure_requests = 6000;
  opt.warmup_requests = 0;
  opt.num_keys_per_node = 600000;
  opt.access = kv::AccessPath::kLsm;
  opt.cache_pages = 1 << 17;  // 512 MB cache under ~600 MB of tables per node.
  opt.noise = harness::NoiseKind::kEc2;
  opt.ec2.mean_off = Millis(2500);
  opt.ec2.min_on = Millis(100);
  opt.ec2.max_on = Millis(800);
  opt.deadline = Millis(13);
  opt.seed = 1313;
  harness::ExperimentOptions traced = opt;
  traced.trace = true;

  std::printf("=== Figure 13: MittOS-powered LevelDB + Riak ===\n");
  const std::vector<harness::RunResult> results = harness::RunTrialsParallel(
      {{opt, harness::StrategyKind::kBase, ""},
       {traced, harness::StrategyKind::kMittos, "MittCFQ"}});
  const harness::RunResult& mitt = results[1];

  std::printf("\n--- Fig 13a: Riak get() latency percentiles ---\n");
  harness::PrintPercentileTable(results, {50, 90, 92, 94, 96, 98, 99}, /*user_level=*/false);
  std::printf("MittOS replica failovers: %lu\n",
              static_cast<unsigned long>(mitt.ebusy_failovers));

  std::printf("\n--- Fig 13b: node-0 timeline (500ms buckets) ---\n");
  if (!MITT_OBS_ENABLED) {
    std::printf("The timeline needs tracing (it counts EBUSY spans); this build compiles it "
                "out (MITT_OBS_DISABLED).\n");
    return 0;
  }
  const size_t bins = static_cast<size_t>((mitt.sim_duration + kBin - 1) / kBin);
  std::vector<uint64_t> ebusy(bins, 0);
  for (const obs::SpanRecord& span : mitt.trace_spans) {
    if (span.kind == obs::SpanKind::kEbusyReject && span.node == 0) {
      ++ebusy[static_cast<size_t>(span.begin / kBin)];
    }
  }
  // The schedule Experiment's kEc2 noise replays on node 0.
  const auto schedule = noise::Ec2NoiseModel(opt.ec2, opt.seed ^ 0xEC2)
                            .GenerateSchedule(0, opt.noise_horizon);
  std::string noise_row;
  std::string ebusy_row;
  uint64_t noisy_ebusy = 0;
  uint64_t quiet_ebusy = 0;
  size_t noisy_bins = 0;
  for (size_t b = 0; b < bins; ++b) {
    const TimeNs lo = static_cast<TimeNs>(b) * kBin;
    bool noisy = false;
    for (const noise::NoiseEpisode& ep : schedule) {
      noisy = noisy || (ep.start < lo + kBin && ep.start + ep.duration > lo);
    }
    noise_row += noisy ? 'N' : '.';
    ebusy_row += ebusy[b] < 10 ? static_cast<char>('0' + ebusy[b]) : '+';
    (noisy ? noisy_ebusy : quiet_ebusy) += ebusy[b];
    noisy_bins += noisy ? 1 : 0;
  }
  std::printf("bucket: N = noise active, . = quiet; digit row = EBUSYs returned\n");
  std::printf("noise: %s\nEBUSY: %s\n", noise_row.c_str(), ebusy_row.c_str());
  const auto per_bin = [](uint64_t n, size_t d) {
    return d == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(d);
  };
  std::printf("EBUSYs per bucket: noisy %.2f, quiet %.2f; trace spans %zu, dropped %lu\n",
              per_bin(noisy_ebusy, noisy_bins), per_bin(quiet_ebusy, bins - noisy_bins),
              mitt.trace_spans.size(), static_cast<unsigned long>(mitt.trace_dropped));
  std::printf("\nExpected: EBUSY bursts line up with noise episodes; stray EBUSYs in quiet\n"
              "buckets are self-load (several concurrent LSM block reads), which the\n"
              "predictor correctly reports as deadline-threatening busyness.\n");
  return 0;
}
