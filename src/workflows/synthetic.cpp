#include "workflows/synthetic.hpp"

#include <algorithm>
#include <string>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace fpsched {

TaskGraph make_chain(std::span<const double> weights) {
  ensure(!weights.empty(), "chain needs at least one task");
  TaskGraphBuilder builder;
  const TypeId type = builder.intern_type("chain");
  for (const double weight : weights) builder.add_task(type, weight);
  for (VertexId v = 1; v < weights.size(); ++v) builder.add_edge(v - 1, v);
  return std::move(builder).finish();
}

TaskGraph make_uniform_chain(std::size_t n, double weight) {
  return make_chain(std::vector<double>(n, weight));
}

TaskGraph make_fork(double source_weight, std::span<const double> sink_weights) {
  ensure(!sink_weights.empty(), "fork needs at least one sink");
  TaskGraphBuilder builder;
  const VertexId source = builder.add_task(builder.intern_type("src"), source_weight);
  const TypeId sink = builder.intern_type("sink");
  for (const double weight : sink_weights) builder.add_task(sink, weight);
  for (VertexId v = 1; v < builder.task_count(); ++v) builder.add_edge(source, v);
  return std::move(builder).finish();
}

TaskGraph make_join(std::span<const double> source_weights, double sink_weight) {
  ensure(!source_weights.empty(), "join needs at least one source");
  TaskGraphBuilder builder;
  const TypeId source = builder.intern_type("src");
  for (const double weight : source_weights) builder.add_task(source, weight);
  const VertexId sink = builder.add_task(builder.intern_type("sink"), sink_weight);
  for (VertexId v = 0; v < sink; ++v) builder.add_edge(v, sink);
  return std::move(builder).finish();
}

TaskGraph make_fork_join(std::size_t levels, std::size_t width, double weight) {
  ensure(levels >= 1 && width >= 1, "fork_join needs levels >= 1 and width >= 1");
  TaskGraphBuilder builder;
  std::vector<VertexId> previous{builder.add_task(builder.intern_type("src"), weight)};
  for (std::size_t level = 0; level < levels; ++level) {
    // Built by append to sidestep a GCC 12 -Wrestrict false positive on
    // `const char* + std::string&&`.
    std::string type = "l";
    type += std::to_string(level);
    type += '_';
    const TypeId layer = builder.intern_type(type);
    std::vector<VertexId> current;
    for (std::size_t i = 0; i < width; ++i) {
      const VertexId v = builder.add_task(layer, weight);
      for (const VertexId p : previous) builder.add_edge(p, v);
      current.push_back(v);
    }
    previous = std::move(current);
  }
  const VertexId sink = builder.add_task(builder.intern_type("snk"), weight);
  for (const VertexId p : previous) builder.add_edge(p, sink);
  return std::move(builder).finish();
}

TaskGraph make_layered_random(const LayeredRandomConfig& config) {
  ensure(config.task_count >= config.layer_count, "need at least one task per layer");
  ensure(config.layer_count >= 1, "need at least one layer");
  Rng rng(config.seed);

  // Random layer sizes: every layer gets one task, the rest are spread
  // uniformly.
  std::vector<std::size_t> layer_of(config.task_count);
  for (std::size_t i = 0; i < config.layer_count; ++i) layer_of[i] = i;
  for (std::size_t i = config.layer_count; i < config.task_count; ++i)
    layer_of[i] = static_cast<std::size_t>(rng.uniform_index(config.layer_count));
  std::vector<std::vector<VertexId>> layers(config.layer_count);

  TaskGraphBuilder builder;
  const TypeId type = builder.intern_type("t");
  for (std::size_t i = 0; i < config.task_count; ++i) {
    const double w = config.weight_cv == 0.0
                         ? config.mean_weight
                         : rng.gamma_mean_cv(config.mean_weight, config.weight_cv);
    layers[layer_of[i]].push_back(builder.add_task(type, w));
  }

  for (std::size_t layer = 1; layer < config.layer_count; ++layer) {
    for (const VertexId v : layers[layer]) {
      bool has_pred = false;
      for (const VertexId p : layers[layer - 1]) {
        if (rng.bernoulli(config.edge_probability)) {
          builder.add_edge(p, v);
          has_pred = true;
        }
      }
      if (!has_pred && !layers[layer - 1].empty()) {
        const auto& prev = layers[layer - 1];
        builder.add_edge(prev[rng.uniform_index(prev.size())], v);
      }
    }
  }
  return std::move(builder).finish();
}

TaskGraph make_paper_figure1(double weight) {
  // Figure 1 of the paper: T0 -> T3 -> T5 -> T6, T1 -> T2 -> {T4, T7},
  // T4 -> T6; checkpoint flags (T3, T4) are chosen by callers.
  TaskGraphBuilder builder;
  const TypeId type = builder.intern_type("T");
  for (int i = 0; i < 8; ++i) builder.add_task(type, weight);
  builder.add_edge(0, 3);
  builder.add_edge(3, 5);
  builder.add_edge(5, 6);
  builder.add_edge(1, 2);
  builder.add_edge(2, 4);
  builder.add_edge(2, 7);
  builder.add_edge(4, 6);
  return std::move(builder).finish();
}

}  // namespace fpsched
