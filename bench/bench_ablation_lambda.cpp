// Ablation A2 (§VI-B): the security parameter lambda. The paper reports
// that lambda can be reduced to 5 ms on the 3-continent deployment without
// hurting performance; below the network's jitter floor, validations start
// failing, proposals get rejected and retried, and latency suffers.

#include "bench_common.hpp"

using namespace lyra;
using harness::RunConfig;

int main() {
  bench::print_header(
      "Ablation: security parameter lambda (n = 16, 3 continents)",
      " lambda(ms)   accept-rate   mean-latency(ms)   throughput(tx/s)");
  std::string csv = "lambda_ms,accept_rate,mean_latency_ms,throughput_tps\n";

  for (double lambda_ms : {1.0, 2.0, 5.0, 10.0, 50.0}) {
    RunConfig config;
    config.protocol = harness::Protocol::kLyra;
    config.n = 16;
    config.clients_per_node = 1600;
    config.lambda = ms(lambda_ms);
    const auto r = run_experiment(config);
    std::printf("%10.1f %12.3f %17.1f %18.0f\n", lambda_ms,
                r.validation_accept_rate, r.mean_latency_ms,
                r.throughput_tps);
    std::fflush(stdout);
    csv += std::to_string(lambda_ms) + "," +
           std::to_string(r.validation_accept_rate) + "," +
           std::to_string(r.mean_latency_ms) + "," +
           std::to_string(r.throughput_tps) + "\n";
  }
  bench::write_csv("ablation_lambda.csv", csv);
  return 0;
}
