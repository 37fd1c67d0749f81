// Reproduces the Section IV-B model footprint and timing claims with
// google-benchmark: parameter count, serialized size, single-sample
// inference latency (paper: 10.781 ms/sample on their setup), and training
// step throughput.
//
// Also records the memory behaviour of the hot path (BENCH_footprint.json):
// heap allocation counts for a warm training epoch / steady training step /
// warm predict pass (the workspace refactor pins the steady-state counts at
// zero) and the process peak RSS. Allocation counts come from the
// wifisense_alloc_counter operator-new replacement linked into this binary.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <cmath>
#include <random>

#include "bench_common.hpp"
#include "common/alloc_counter.hpp"
#include "core/occupancy_detector.hpp"
#include "data/dataset.hpp"
#include "nn/kernels/backend.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/quant.hpp"
#include "nn/trainer.hpp"

namespace {

using namespace wifisense;

nn::Mlp make_net(std::size_t inputs) {
    std::mt19937_64 rng(42);
    return nn::paper_mlp(inputs, rng);
}

nn::Matrix random_batch(std::size_t rows, std::size_t cols) {
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    nn::Matrix m(rows, cols);
    for (float& v : m.data()) v = u(rng);
    return m;
}

nn::Matrix random_labels(std::size_t rows) {
    nn::Matrix y(rows, 1);
    for (std::size_t i = 0; i < rows; ++i) y.at(i, 0) = static_cast<float>(i % 2);
    return y;
}

double peak_rss_mib() {
    struct rusage ru {};
    if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB -> MiB
}

void BM_SingleSampleInference(benchmark::State& state) {
    nn::Mlp net = make_net(static_cast<std::size_t>(state.range(0)));
    net.set_training(false);
    const nn::Matrix x = random_batch(1, net.input_size());
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.forward_ws(x, /*cache=*/false));
    }
    state.counters["params"] = static_cast<double>(net.parameter_count());
    state.counters["weight_KiB"] =
        static_cast<double>(net.weight_bytes()) / 1024.0;
}
BENCHMARK(BM_SingleSampleInference)->Arg(64)->Arg(66)->Unit(benchmark::kMicrosecond);

void BM_BatchInference(benchmark::State& state) {
    nn::Mlp net = make_net(64);
    net.set_training(false);
    const auto batch = static_cast<std::size_t>(state.range(0));
    const nn::Matrix x = random_batch(batch, 64);
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.forward_ws(x, /*cache=*/false));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_BatchInference)->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_TrainingStep(benchmark::State& state) {
    nn::Mlp net = make_net(64);
    const auto batch = static_cast<std::size_t>(state.range(0));
    const nn::Matrix x = random_batch(batch, 64);
    const nn::Matrix y = random_labels(batch);
    const nn::BceWithLogitsLoss loss;
    nn::AdamW opt;
    std::vector<nn::ParamView> params = net.parameters();
    net.reserve_workspace(batch);
    for (auto _ : state) {
        net.zero_grad();
        const nn::Matrix& out = net.forward_ws(x, /*cache=*/true);
        loss.compute_into(out, y, net.output_grad_buffer());
        net.backward_params_ws();
        opt.step(params);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_TrainingStep)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_GatherBatch(benchmark::State& state) {
    const nn::Matrix x = random_batch(50'000, 64);
    std::vector<std::size_t> idx(256);
    std::mt19937_64 rng(3);
    std::uniform_int_distribution<std::size_t> pick(0, x.rows() - 1);
    for (auto& i : idx) i = pick(rng);
    nn::Matrix out;
    out.reserve(idx.size(), x.cols());
    for (auto _ : state) {
        nn::gather_rows_into(x, idx, out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_GatherBatch)->Unit(benchmark::kMicrosecond);

/// Allocation + wall-clock profile of nn::train on a synthetic problem:
/// one warm-up epoch (workspace + optimizer-state growth), then a measured
/// epoch whose per-step loop should not touch the heap at all.
void record_training_profile(wifisense::bench::BenchReport& report) {
    constexpr std::size_t kRows = 10'000, kBatch = 256;
    nn::Mlp net = make_net(64);
    const nn::Matrix x = random_batch(kRows, 64);
    const nn::Matrix y = random_labels(kRows);
    const nn::BceWithLogitsLoss loss;

    nn::TrainConfig cfg;
    cfg.epochs = 1;
    cfg.batch_size = kBatch;
    cfg.seed = 5;
    nn::train(net, x, y, loss, cfg);  // warm-up epoch

    alloc::AllocationProbe epoch_probe;
    const std::uint64_t t0 = common::trace_now_ns();
    nn::train(net, x, y, loss, cfg);
    const double epoch_s = common::trace_seconds_since(t0);
    // Per-call scaffolding (shuffle order, parameter views, history) is the
    // only remaining heap traffic; the per-step loop contributes zero.
    const double epoch_allocs = static_cast<double>(epoch_probe.delta());
    report.metric("train_epoch_wall_s", epoch_s);
    report.metric("train_epoch_allocs", epoch_allocs);
    report.metric("train_epoch_steps",
                  std::ceil(static_cast<double>(kRows) / kBatch));

    // Steady-state step: trainer-equivalent loop bracketed by the probe.
    nn::AdamW opt;
    std::vector<nn::ParamView> params = net.parameters();
    net.set_training(true);
    net.reserve_workspace(kBatch);
    std::vector<std::size_t> idx(kBatch);
    nn::Matrix by;
    by.reserve(kBatch, 1);
    const auto step = [&](std::size_t s) {
        for (std::size_t i = 0; i < kBatch; ++i) idx[i] = (s * kBatch + i) % kRows;
        nn::Matrix& bx = net.input_buffer();
        nn::gather_rows_into(x, idx, bx);
        nn::gather_rows_into(y, idx, by);
        net.zero_grad();
        const nn::Matrix& out = net.forward_ws(bx, /*cache=*/true);
        loss.compute_into(out, by, net.output_grad_buffer());
        net.backward_params_ws();
        opt.step(params);
    };
    step(0);
    step(1);
    alloc::AllocationProbe step_probe;
    step(2);
    const double step_allocs = static_cast<double>(step_probe.delta());
    report.metric("steady_step_allocs", step_allocs);

    // Warm predict pass: the output matrix is the only expected allocation.
    (void)nn::predict(net, x, 4096);
    alloc::AllocationProbe predict_probe;
    (void)nn::predict(net, x, 4096);
    const double predict_allocs = static_cast<double>(predict_probe.delta());
    report.metric("warm_predict_allocs", predict_allocs);

    std::printf(
        "heap profile: warm training epoch %g allocs over %zu steps "
        "(%.3f s), steady step %g allocs, warm predict pass %g allocs\n\n",
        epoch_allocs, (kRows + kBatch - 1) / kBatch, epoch_s, step_allocs,
        predict_allocs);
}

/// Warm batched-predict throughput (samples/sec) on the active backend.
double predict_throughput(nn::Mlp& net, const nn::Matrix& x) {
    net.set_training(false);
    (void)net.forward_ws(x, /*cache=*/false);  // warm the workspace
    constexpr int kReps = 50;
    const std::uint64_t t0 = common::trace_now_ns();
    for (int i = 0; i < kReps; ++i)
        benchmark::DoNotOptimize(net.forward_ws(x, /*cache=*/false));
    const double secs = common::trace_seconds_since(t0);
    return static_cast<double>(x.rows()) * kReps / secs;
}

/// Single-sample warm inference latency (microseconds) on the active backend.
double inference_us(nn::Mlp& net, const nn::Matrix& one) {
    net.set_training(false);
    (void)net.forward_ws(one, /*cache=*/false);
    constexpr int kReps = 2000;
    const std::uint64_t t0 = common::trace_now_ns();
    for (int i = 0; i < kReps; ++i)
        benchmark::DoNotOptimize(net.forward_ws(one, /*cache=*/false));
    return 1e6 * common::trace_seconds_since(t0) / kReps;
}

/// Per-backend kernel profile: float throughput/latency on every supported
/// backend plus the int8 quantized path, each with a warm-forward
/// zero-allocation probe. The startup backend is restored afterwards so the
/// google-benchmark section below measures the configuration the user asked
/// for.
void record_kernel_backends(wifisense::bench::BenchReport& report) {
    constexpr std::size_t kRows = 4096;
    nn::Mlp net = make_net(64);
    net.set_training(false);
    const nn::Matrix x = random_batch(kRows, 64);
    const nn::Matrix one = random_batch(1, 64);
    const std::string startup = nn::kernels::active_backend().name;

    nn::kernels::set_kernel_backend("scalar");
    const double scalar_sps = predict_throughput(net, x);
    report.metric("predict_samples_per_sec_scalar", scalar_sps);
    std::printf("kernel backends (cpu: %s):\n  scalar: %.3g samples/s\n",
                common::cpu_feature_string().c_str(), scalar_sps);

    if (nn::kernels::avx2_supported()) {
        nn::kernels::set_kernel_backend("avx2");
        const double avx2_sps = predict_throughput(net, x);
        report.metric("predict_samples_per_sec_avx2", avx2_sps);
        report.metric("inference_us_per_sample_avx2", inference_us(net, one));
        (void)net.forward_ws(x, /*cache=*/false);
        alloc::AllocationProbe probe;
        (void)net.forward_ws(x, /*cache=*/false);
        report.metric("warm_forward_allocs_avx2",
                      static_cast<double>(probe.delta()));
        std::printf("  avx2:   %.3g samples/s (%.1fx scalar)\n", avx2_sps,
                    avx2_sps / scalar_sps);
    } else {
        std::printf("  avx2:   unsupported on this CPU\n");
    }
    // int8 quantized inference, measured on the fastest supported backend —
    // outputs are bitwise backend-independent (nn/quant.hpp), so "auto" only
    // changes the wall clock, never the recorded accuracy story. Calibrate
    // on the bench batch itself: for a footprint timing run the scales only
    // need to be representative.
    nn::kernels::set_kernel_backend("auto");
    nn::QuantizedMlp qnet = nn::quantize_mlp(net, x);
    report.metric("quant_weight_kib",
                  static_cast<double>(qnet.weight_bytes()) / 1024.0);
    qnet.reserve_workspace(kRows);
    (void)qnet.forward_ws(x);  // warm
    {
        alloc::AllocationProbe probe;
        (void)qnet.forward_ws(x);
        report.metric("warm_forward_allocs_int8",
                      static_cast<double>(probe.delta()));
    }
    constexpr int kReps = 50;
    const std::uint64_t t0 = common::trace_now_ns();
    for (int i = 0; i < kReps; ++i) benchmark::DoNotOptimize(qnet.forward_ws(x));
    const double int8_sps =
        static_cast<double>(kRows) * kReps / common::trace_seconds_since(t0);
    report.metric("predict_samples_per_sec_int8", int8_sps);
    (void)qnet.forward_ws(one);
    constexpr int kOneReps = 2000;
    const std::uint64_t t1 = common::trace_now_ns();
    for (int i = 0; i < kOneReps; ++i)
        benchmark::DoNotOptimize(qnet.forward_ws(one));
    report.metric("inference_us_per_sample_int8",
                  1e6 * common::trace_seconds_since(t1) / kOneReps);
    std::printf(
        "  int8:   %.3g samples/s (%.1fx scalar float, %s backend), "
        "weights %.2f KiB\n\n",
        int8_sps, int8_sps / scalar_sps, nn::kernels::active_backend().name,
        static_cast<double>(qnet.weight_bytes()) / 1024.0);
    nn::kernels::set_kernel_backend(startup);
}

}  // namespace

int main(int argc, char** argv) {
    wifisense::bench::configure_observability(argc, argv);
    wifisense::bench::BenchReport report("footprint");
    {
        nn::Mlp net = make_net(64);
        std::printf(
            "model footprint (Section IV-B): %zu trainable parameters, "
            "%.2f KiB float32 weights\n"
            "paper: per-layer counts 8320/33024/32896/129 => 74369 params; "
            "stated size 15.18 KiB implies int8 quantization (not replicated); "
            "stated inference 10.781 ms/sample.\n\n",
            net.parameter_count(),
            static_cast<double>(net.weight_bytes()) / 1024.0);
        report.metric("params", static_cast<double>(net.parameter_count()));
        report.metric("weight_kib",
                      static_cast<double>(net.weight_bytes()) / 1024.0);

        // Single-sample latency recorded alongside the google-benchmark runs
        // so the JSON is self-contained.
        net.set_training(false);
        const nn::Matrix x = random_batch(1, net.input_size());
        constexpr int kReps = 2000;
        const std::uint64_t t0 = common::trace_now_ns();
        for (int i = 0; i < kReps; ++i)
            benchmark::DoNotOptimize(net.forward_ws(x, /*cache=*/false));
        const double secs = common::trace_seconds_since(t0);
        report.metric("inference_us_per_sample", 1e6 * secs / kReps);
        report.set_rows(kReps);

        // Batched throughput on the startup backend — the headline number
        // the perf gate in CI tracks.
        const nn::Matrix batch = random_batch(4096, net.input_size());
        report.metric("predict_samples_per_sec", predict_throughput(net, batch));
    }
    record_kernel_backends(report);
    record_training_profile(report);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    report.metric("peak_rss_mib", peak_rss_mib());
    std::printf("peak RSS: %.1f MiB\n", peak_rss_mib());
    report.write();
    return 0;
}
