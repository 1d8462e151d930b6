// Similarity search: train an embedding through the gosh::api facade,
// persist it into a sharded mmap-served GSHS store, then answer KNN
// queries through the gosh::serving service API — the full
// train -> store -> serve pipeline in one file, with every strategy
// created from the ServiceRegistry ("exact" scanning every shard, "hnsw")
// answering the same QueryRequest model.
//
//   ./similarity_search [vertices] [store_path]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "gosh/api/api.hpp"

int main(int argc, char** argv) {
  using namespace gosh;

  const vid_t n = argc > 1 ? static_cast<vid_t>(std::atoi(argv[1])) : 2000;
  const std::string store_path =
      argc > 2 ? argv[2] : "similarity_search.store";

  // 1. Train. An LFR graph has planted communities, so nearest neighbors
  // in embedding space should land in the query vertex's own community.
  graph::LfrParams params;
  params.communities = 24;
  const graph::Graph g = graph::lfr_like(n, params, /*seed=*/5);
  std::printf("graph: |V|=%u |E|=%llu\n", g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges_undirected()));

  api::Options options;
  options.preset = "fast";
  options.train().dim = 48;
  options.gosh.total_epochs = 300;
  auto embedded = api::embed(g, options);
  if (!embedded.ok()) {
    std::fprintf(stderr, "error: %s\n", embedded.status().to_string().c_str());
    return 1;
  }
  std::printf("embedded in %.2f s (backend %s)\n",
              embedded.value().total_seconds,
              embedded.value().backend.c_str());

  // 2. Persist into a 3-shard store — the layout `gosh_serve --shard I/N`
  // children serve one shard of — and build the HNSW index beside it.
  if (api::Status status = api::write_embedding(
          embedded.value().embedding, store_path, "store",
          /*rows_per_shard=*/n / 3 + 1);
      !status.is_ok()) {
    std::fprintf(stderr, "error: %s\n", status.to_string().c_str());
    return 1;
  }

  serving::ServeOptions serve;
  serve.store_path = store_path;
  serve.k = 5;
  serve.ef_construction = 128;
  auto built = serving::build_index(serve);
  if (!built.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 built.status().to_string().c_str());
    return 1;
  }
  std::printf("store %s + index %s (max level %d)\n", store_path.c_str(),
              built.value().path.c_str(), built.value().max_level);

  // 3. Serve: every strategy is a registry key answering the same request
  // model, with per-request metrics flowing into one registry.
  serving::MetricsRegistry metrics;
  Rng rng(11);
  for (int i = 0; i < 3; ++i) {
    const vid_t v = rng.next_vertex(n);
    for (const char* strategy : {"exact", "hnsw"}) {
      serve.strategy = strategy;
      auto service = serving::make_service(serve, &metrics);
      if (!service.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     service.status().to_string().c_str());
        return 1;
      }
      auto top = service.value()->top_k_vertex(v, 5);
      if (!top.ok()) {
        std::fprintf(stderr, "error: %s\n", top.status().to_string().c_str());
        return 1;
      }
      std::printf("vertex %5u (%7s):", v, strategy);
      // How many of the returned neighbors are actual graph neighbors?
      const auto adjacent = g.neighbors(v);
      unsigned direct = 0;
      for (const query::Neighbor& nb : top.value()) {
        for (const vid_t u : adjacent) direct += (u == nb.id);
        std::printf(" %u:%.3f", nb.id, nb.score);
      }
      std::printf("   [%u/5 are graph neighbors]\n", direct);
    }
  }

  // 4. One multi-vector, filtered request: "similar to BOTH of these
  // vertices, answered only from the first half of the id space".
  serve.strategy = "exact";
  auto service = serving::make_service(serve, &metrics);
  if (!service.ok()) {
    std::fprintf(stderr, "error: %s\n", service.status().to_string().c_str());
    return 1;
  }
  const vid_t a = rng.next_vertex(n), b = rng.next_vertex(n);
  auto va = service.value()->row_vector(a);
  auto vb = service.value()->row_vector(b);
  if (!va.ok() || !vb.ok()) return 1;
  std::vector<float> joint = std::move(va).value();
  const std::vector<float> second = std::move(vb).value();
  joint.insert(joint.end(), second.begin(), second.end());

  serving::QueryRequest request;
  request.queries.push_back(serving::Query::multi(std::move(joint), 2));
  request.aggregate = serving::Aggregate::kMean;
  request.filter = [n](vid_t id) { return id < n / 2; };
  auto response = service.value()->serve(request);
  if (!response.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 response.status().to_string().c_str());
    return 1;
  }
  std::printf("multi-vector mean(%u, %u), ids < %u:", a, b, n / 2);
  for (const query::Neighbor& nb : response.value().results.front()) {
    std::printf(" %u:%.3f", nb.id, nb.score);
  }
  std::printf("\n");
  return 0;
}
